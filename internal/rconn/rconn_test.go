package rconn

import (
	"bytes"
	"testing"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/sim"
	"skv/internal/transport"
)

type world struct {
	eng *sim.Engine
	net *fabric.Network
	p   *model.Params
}

func newWorld() *world {
	eng := sim.New(11)
	p := model.Default()
	return &world{eng: eng, net: fabric.New(eng, &p), p: &p}
}

func (w *world) stack(name string, smartNIC bool) *Stack {
	m := w.net.NewMachine(name, smartNIC)
	core := sim.NewCore(w.eng, name+"0", 1.0)
	proc := sim.NewProc(w.eng, core, w.p.CompChannelWake)
	return New(w.net, m.Host, proc)
}

func dialPair(t *testing.T, w *world, tune func(*Stack)) (transport.Conn, transport.Conn) {
	t.Helper()
	sa := w.stack("a", false)
	sb := w.stack("b", false)
	if tune != nil {
		tune(sa)
		tune(sb)
	}
	var cli, srv transport.Conn
	sb.Listen(7000, func(c transport.Conn) { srv = c })
	w.eng.At(0, func() {
		sa.Dial(sb.Endpoint(), 7000, func(c transport.Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			cli = c
		})
	})
	w.eng.Run(0)
	if cli == nil || srv == nil {
		t.Fatal("MR exchange did not complete")
	}
	return cli, srv
}

func TestEcho(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	srv.SetHandler(func(b []byte) { srv.Send(append([]byte("r:"), b...)) })
	var got string
	cli.SetHandler(func(b []byte) { got = string(b) })
	w.eng.After(0, func() { cli.Send([]byte("SET k v")) })
	w.eng.Run(0)
	if got != "r:SET k v" {
		t.Fatalf("got %q", got)
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	var got []int
	srv.SetHandler(func(b []byte) { got = append(got, int(b[0])<<8|int(b[1])) })
	w.eng.After(0, func() {
		for i := 0; i < 1000; i++ {
			cli.Send([]byte{byte(i >> 8), byte(i), 0, 0, 0, 0, 0, 0})
		}
	})
	w.eng.Run(0)
	if len(got) != 1000 {
		t.Fatalf("delivered %d/1000", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d out of order (got %d)", i, v)
		}
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	payload := make([]byte, 3*MaxChunk+123) // forces 4 chunks
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got []byte
	srv.SetHandler(func(b []byte) { got = b })
	w.eng.After(0, func() { cli.Send(payload) })
	w.eng.Run(0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembly mismatch: got %d bytes", len(got))
	}
}

// msgBytes is the i-th test message: size bytes, distinct per i.
func msgBytes(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*7 + j)
	}
	return b
}

func TestRingFullTriggersReRegistration(t *testing.T) {
	w := newWorld()
	// Tiny ring so a handful of messages exhausts it.
	cli, srv := dialPair(t, w, func(s *Stack) { s.RingSize = 1024 })
	// Single-frame payloads alias the receive ring; keeping them (without
	// copying) across re-registrations must not let later traffic change
	// them.
	var kept [][]byte
	srv.SetHandler(func(b []byte) { kept = append(kept, b) })
	w.eng.After(0, func() {
		for i := 0; i < 100; i++ {
			cli.Send(msgBytes(i, 100))
		}
	})
	w.eng.Run(0)
	if len(kept) != 100 {
		t.Fatalf("delivered %d/100 across ring resets", len(kept))
	}
	if rc := srv.(*conn).RingResets; rc < 5 {
		t.Fatalf("ring resets = %d, want several with a 1KB ring", rc)
	}
	for i, b := range kept {
		if !bytes.Equal(b, msgBytes(i, 100)) {
			t.Fatalf("kept payload %d changed after ring resets", i)
		}
	}
}

// Handler payloads may alias the ring; a handler that scribbles over its
// own payload, or appends to it, must not change what later handlers see.
func TestHandlerMutatingPayloadDoesNotLeak(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	n := 0
	srv.SetHandler(func(b []byte) {
		if !bytes.Equal(b, msgBytes(n, 48)) {
			t.Errorf("message %d arrived as %v", n, b)
		}
		n++
		for j := range b {
			b[j] = 0xEE
		}
		_ = append(b, 0xEE, 0xEE, 0xEE, 0xEE)
	})
	w.eng.After(0, func() {
		for i := 0; i < 300; i++ {
			cli.Send(msgBytes(i, 48))
		}
	})
	w.eng.Run(0)
	if n != 300 {
		t.Fatalf("delivered %d/300", n)
	}
}

// Sends that do not wait for delivery may reuse their buffer at once:
// Conn.Send copies, even though the verbs layer below takes ownership of
// each posted frame.
func TestSendBufferReusableImmediately(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	var got [][]byte
	srv.SetHandler(func(b []byte) { got = append(got, append([]byte(nil), b...)) })
	w.eng.After(0, func() {
		buf := make([]byte, 32)
		for i := 0; i < 50; i++ {
			copy(buf, msgBytes(i, 32))
			cli.Send(buf)
		}
	})
	w.eng.Run(0)
	if len(got) != 50 {
		t.Fatalf("delivered %d/50", len(got))
	}
	for i, b := range got {
		if !bytes.Equal(b, msgBytes(i, 32)) {
			t.Fatalf("message %d changed by a later reuse of the send buffer", i)
		}
	}
}

// Dialing, exchanging enough traffic to force ring re-registrations, and
// closing (from either side) must hand every queue pair and memory region
// back to the devices.
func TestConnLifecycleReleasesQPsAndMRs(t *testing.T) {
	w := newWorld()
	sa := w.stack("a", false)
	sb := w.stack("b", false)
	for _, s := range []*Stack{sa, sb} {
		s.RingSize = 1024
	}
	var srv transport.Conn
	sb.Listen(7000, func(c transport.Conn) { srv = c })
	baseA, baseMRA := sa.Device().Resources()
	baseB, baseMRB := sb.Device().Resources()
	const cycles = 20
	resets := uint64(0)
	for i := 0; i < cycles; i++ {
		var cli transport.Conn
		srv = nil
		w.eng.After(0, func() {
			sa.Dial(sb.Endpoint(), 7000, func(c transport.Conn, err error) {
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				cli = c
			})
		})
		w.eng.Run(0)
		if cli == nil || srv == nil {
			t.Fatalf("cycle %d: dial did not complete", i)
		}
		got := 0
		srv.SetHandler(func([]byte) { got++ })
		w.eng.After(0, func() {
			for j := 0; j < 30; j++ {
				cli.Send(msgBytes(j, 100))
			}
		})
		w.eng.Run(0)
		if got != 30 {
			t.Fatalf("cycle %d: delivered %d/30", i, got)
		}
		resets += srv.(*conn).RingResets
		closer := cli
		if i%2 == 1 {
			closer = srv
		}
		w.eng.After(0, closer.Close)
		w.eng.Run(0)
		if !cli.Closed() || !srv.Closed() {
			t.Fatalf("cycle %d: close did not reach both sides", i)
		}
	}
	if resets < cycles {
		t.Fatalf("only %d ring resets over %d cycles", resets, cycles)
	}
	if qps, mrs := sa.Device().Resources(); qps != baseA || mrs != baseMRA {
		t.Fatalf("dialer holds %d QPs and %d MRs after %d cycles, baseline %d and %d", qps, mrs, cycles, baseA, baseMRA)
	}
	if qps, mrs := sb.Device().Resources(); qps != baseB || mrs != baseMRB {
		t.Fatalf("listener holds %d QPs and %d MRs after %d cycles, baseline %d and %d", qps, mrs, cycles, baseB, baseMRB)
	}
}

func TestVeryLargePayloadThroughTinyRing(t *testing.T) {
	// An RDB-sized payload must flow even when it dwarfs the ring.
	w := newWorld()
	cli, srv := dialPair(t, w, func(s *Stack) { s.RingSize = 64 << 10 })
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got []byte
	srv.SetHandler(func(b []byte) { got = b })
	w.eng.After(0, func() { cli.Send(payload) })
	w.eng.Run(0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("1MB payload mangled (got %d bytes)", len(got))
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	fromCli, fromSrv := 0, 0
	srv.SetHandler(func(b []byte) { fromCli++ })
	cli.SetHandler(func(b []byte) { fromSrv++ })
	w.eng.After(0, func() {
		for i := 0; i < 50; i++ {
			cli.Send([]byte("c"))
			srv.Send([]byte("s"))
		}
	})
	w.eng.Run(0)
	if fromCli != 50 || fromSrv != 50 {
		t.Fatalf("bidirectional counts %d/%d, want 50/50", fromCli, fromSrv)
	}
}

func TestCloseNotifiesPeer(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	closed := false
	srv.SetCloseHandler(func() { closed = true })
	w.eng.After(0, func() { cli.Close() })
	w.eng.Run(0)
	if !closed || !cli.Closed() {
		t.Fatal("close did not propagate")
	}
}

func TestDialRefused(t *testing.T) {
	w := newWorld()
	sa := w.stack("a", false)
	sb := w.stack("b", false)
	var gotErr error
	w.eng.At(0, func() {
		sa.Dial(sb.Endpoint(), 4242, func(c transport.Conn, err error) { gotErr = err })
	})
	w.eng.Run(0)
	if gotErr == nil {
		t.Fatal("expected refusal")
	}
}

func TestRDMAPerMessageCPUWellBelowTCP(t *testing.T) {
	// The motivating measurement: receiving a message via the completion
	// channel costs far less CPU than the kernel TCP path.
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	proc := srv.(*conn).stack.proc
	n := 0
	srv.SetHandler(func(b []byte) { n++ })
	before := proc.Core.BusyTime()
	w.eng.After(0, func() {
		for i := 0; i < 200; i++ {
			cli.Send(make([]byte, 64))
		}
	})
	w.eng.Run(0)
	if n != 200 {
		t.Fatalf("delivered %d/200", n)
	}
	perMsg := (proc.Core.BusyTime() - before) / 200
	if perMsg >= w.p.TCPRxCPU/2 {
		t.Fatalf("RDMA per-message RX CPU %v not well below TCP %v", perMsg, w.p.TCPRxCPU)
	}
}

func TestConnAddressing(t *testing.T) {
	w := newWorld()
	cli, _ := dialPair(t, w, nil)
	if cli.Transport() != "rdma" {
		t.Fatal("transport name")
	}
	if cli.RemoteAddr() != "b/host" {
		t.Fatalf("remote addr %q", cli.RemoteAddr())
	}
}
