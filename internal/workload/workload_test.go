package workload

import (
	"bytes"
	"strings"
	"testing"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/tcpsim"
	"skv/internal/transport"
)

func TestGeneratorPureSet(t *testing.T) {
	g := NewGenerator(1, 1000, 64, 1.0, false)
	for i := 0; i < 100; i++ {
		cmd, op := g.Next()
		if op != OpSet {
			t.Fatal("pure-SET generator emitted a GET")
		}
		var r resp.Reader
		r.Feed(cmd)
		argv, ok, err := r.ReadCommand()
		if err != nil || !ok || len(argv) != 3 {
			t.Fatalf("bad command: %q", cmd)
		}
		if string(argv[0]) != "SET" || len(argv[2]) != 64 {
			t.Fatalf("argv %q value len %d", argv[0], len(argv[2]))
		}
		if !strings.HasPrefix(string(argv[1]), "key:") {
			t.Fatalf("key %q", argv[1])
		}
	}
}

func TestGeneratorPureGet(t *testing.T) {
	g := NewGenerator(2, 1000, 64, 0.0, false)
	for i := 0; i < 100; i++ {
		cmd, op := g.Next()
		if op != OpGet {
			t.Fatal("pure-GET generator emitted a SET")
		}
		if !bytes.Contains(cmd, []byte("GET")) {
			t.Fatalf("command %q", cmd)
		}
	}
}

func TestGeneratorMixedRatio(t *testing.T) {
	g := NewGenerator(3, 1000, 8, 0.3, false)
	sets := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if _, op := g.Next(); op == OpSet {
			sets++
		}
	}
	ratio := float64(sets) / n
	if ratio < 0.27 || ratio > 0.33 {
		t.Fatalf("SET ratio %.3f, want ≈0.30", ratio)
	}
}

func TestGeneratorKeySpaceBounded(t *testing.T) {
	g := NewGenerator(4, 10, 8, 1.0, false)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		cmd, _ := g.Next()
		var r resp.Reader
		r.Feed(cmd)
		argv, _, _ := r.ReadCommand()
		seen[string(argv[1])] = true
	}
	if len(seen) > 10 {
		t.Fatalf("keyspace 10 produced %d distinct keys", len(seen))
	}
	if len(seen) < 8 {
		t.Fatalf("uniform generator covered only %d/10 keys", len(seen))
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	g := NewGenerator(5, 10_000, 8, 1.0, true)
	counts := map[string]int{}
	const n = 20_000
	for i := 0; i < n; i++ {
		cmd, _ := g.Next()
		var r resp.Reader
		r.Feed(cmd)
		argv, _, _ := r.ReadCommand()
		counts[string(argv[1])]++
	}
	// Zipf: the hottest key should take a large share; uniform would give
	// each key ≈2 hits.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/20 {
		t.Fatalf("hottest key hit %d/%d times; not Zipfian", max, n)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(7, 100, 16, 0.5, true)
	b := NewGenerator(7, 100, 16, 0.5, true)
	for i := 0; i < 200; i++ {
		ca, oa := a.Next()
		cb, ob := b.Next()
		if oa != ob || !bytes.Equal(ca, cb) {
			t.Fatal("same-seed generators diverged")
		}
	}
}

// echoWorld is a one-server simulated world: a scripted server replying +OK
// to every command, and the one-group slot map clients route by.
type echoWorld struct {
	eng   *sim.Engine
	p     model.Params
	net   *fabric.Network
	srv   *fabric.Machine
	table *slots.Map
	// accepted holds the server side of every connection, in accept order.
	accepted []transport.Conn
}

func newEchoWorld(t *testing.T, seed int64) *echoWorld {
	t.Helper()
	w := &echoWorld{eng: sim.New(seed), p: model.Default()}
	w.net = fabric.New(w.eng, &w.p)
	w.srv = w.net.NewMachine("srv", false)
	table, err := slots.NewMap(1, nil, []string{w.srv.Host.Name()})
	if err != nil {
		t.Fatal(err)
	}
	w.table = table
	srvProc := sim.NewProc(w.eng, sim.NewCore(w.eng, "srv", 1.0), w.p.TCPWakeup)
	tcpsim.New(w.net, w.srv.Host, srvProc).Listen(6379, func(conn transport.Conn) {
		w.accepted = append(w.accepted, conn)
		var r resp.Reader
		conn.SetHandler(func(data []byte) {
			r.Feed(data)
			for {
				_, ok, err := r.ReadCommand()
				if err != nil || !ok {
					return
				}
				conn.Send(resp.AppendSimple(nil, "OK"))
			}
		})
	})
	return w
}

// client builds a client on its own machine, routing by the one-group map.
func (w *echoWorld) client(name string, gen *Generator, opts Options) KV {
	m := w.net.NewMachine(name, false)
	mk := func(ep *fabric.Endpoint, proc *sim.Proc) transport.Stack {
		return tcpsim.New(w.net, ep, proc)
	}
	return New(name, Env{Eng: w.eng, Params: &w.p, EP: m.Host, MakeStack: mk, Gen: gen,
		Wakeup: w.p.ClientWakeup, Port: 6379, Table: w.table,
		Resolve: func(string) *fabric.Endpoint { return w.srv.Host }}, opts)
}

// TestClientClosedLoop runs a client against a scripted echo server in the
// simulation and checks the closed-loop accounting.
func TestClientClosedLoop(t *testing.T) {
	w := newEchoWorld(t, 9)
	cl := w.client("c0", NewGenerator(11, 100, 32, 1.0, false), Options{})
	cl.Start()
	w.eng.Run(sim.Time(100 * sim.Millisecond))
	cl.Stop()
	w.eng.Run(sim.Time(110 * sim.Millisecond))

	st := cl.Stats()
	if st.Done < 1000 {
		t.Fatalf("closed loop completed only %d ops in 100ms", st.Done)
	}
	if st.Sent != st.Done && st.Sent != st.Done+1 {
		t.Fatalf("closed-loop accounting: sent=%d done=%d", st.Sent, st.Done)
	}
	if len(st.GroupDone) != 1 || st.GroupDone[0] != st.Done {
		t.Fatalf("one-group accounting: done=%d per group %v", st.Done, st.GroupDone)
	}
	if cl.Histogram().Count() == 0 {
		t.Fatal("no latencies recorded")
	}
	if st.ErrReplies != 0 {
		t.Fatalf("unexpected error replies: %d", st.ErrReplies)
	}
	if mean := cl.Histogram().Mean(); mean <= 0 || mean > sim.Duration(sim.Millisecond) {
		t.Fatalf("implausible mean latency %v", mean)
	}
}

func TestClientWarmupDiscardsSamples(t *testing.T) {
	w := newEchoWorld(t, 10)
	cl := w.client("c0", NewGenerator(11, 100, 8, 1.0, false), Options{})
	cl.SetWarmup(sim.Time(50 * sim.Millisecond))
	cl.Start()
	w.eng.Run(sim.Time(100 * sim.Millisecond))
	if cl.Histogram().Count() >= cl.Stats().Done {
		t.Fatalf("warm-up did not discard: hist=%d done=%d", cl.Histogram().Count(), cl.Stats().Done)
	}
	if cl.Histogram().Count() == 0 {
		t.Fatal("no post-warmup samples")
	}
}

func TestClientPipelining(t *testing.T) {
	w := newEchoWorld(t, 12)
	run := func(name string, seed int64, depth int) KV {
		cl := w.client(name, NewGenerator(seed, 100, 16, 1.0, false), Options{Pipeline: depth})
		cl.Start()
		w.eng.Run(w.eng.Now().Add(50 * sim.Millisecond))
		cl.Stop()
		w.eng.Run(w.eng.Now().Add(10 * sim.Millisecond))
		return cl
	}
	d1 := run("p", 13, 1).Stats().Done
	cl := run("p8", 14, 8)
	d8 := cl.Stats().Done
	if d8 <= d1 {
		t.Fatalf("pipelining did not help: depth1=%d depth8=%d", d1, d8)
	}
	if cl.Histogram().Count() == 0 {
		t.Fatal("no latencies recorded under pipelining")
	}
}

// TestClientRedialsAfterServerClose: the server drops the connection
// mid-run; the client must re-route its in-flight requests over a fresh
// dial and keep completing instead of stalling.
func TestClientRedialsAfterServerClose(t *testing.T) {
	w := newEchoWorld(t, 15)
	cl := w.client("c0", NewGenerator(16, 100, 16, 1.0, false), Options{Pipeline: 4})
	cl.Start()
	w.eng.Run(sim.Time(30 * sim.Millisecond))
	if len(w.accepted) != 1 {
		t.Fatalf("%d connections before the close, want 1", len(w.accepted))
	}
	w.accepted[0].Close()
	atClose := cl.Stats().Done
	if atClose == 0 {
		t.Fatal("no completions before the close")
	}
	w.eng.Run(sim.Time(100 * sim.Millisecond))
	st := cl.Stats()
	if len(w.accepted) != 2 || st.Redials != 2 {
		t.Fatalf("client did not redial once: accepted=%d redials=%d", len(w.accepted), st.Redials)
	}
	if st.Done < atClose+1000 {
		t.Fatalf("completions did not resume: %d at the close, %d at the end", atClose, st.Done)
	}
	if st.ErrReplies != 0 {
		t.Fatalf("unexpected error replies: %d", st.ErrReplies)
	}
}
