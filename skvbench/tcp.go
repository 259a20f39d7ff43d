package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"time"

	"skv/internal/netserver"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/stats"
	"skv/internal/store"
)

// tcpSpec is the real-server workload: netserver on 127.0.0.1 in this
// process, closed-loop pipelined connections, GET/SET over preloaded keys.
type tcpSpec struct {
	conns    int
	depth    int
	keys     int
	getRatio float64
	warmup   time.Duration
	// replayCmds is the length of the generated stream replayed through
	// resp.Reader and store.Exec alone in the traced run.
	replayCmds int
}

// sliceLen splits the timed window for the per-slice rate and tail.
const sliceLen = 100 * time.Millisecond

var tcpLoopback = tcpSpec{
	conns: 2, depth: 16, keys: 100_000, getRatio: 0.8,
	warmup: 500 * time.Millisecond, replayCmds: 200_000,
}

// tcpValueLen is the value size; values carry their key and a per-key
// write sequence number, so every GET reply can be checked exactly.
const tcpValueLen = 64

func appendValue(dst []byte, key int, seq uint64) []byte {
	start := len(dst)
	dst = appendKey(dst, key)
	dst = append(dst, ':')
	dst = strconv.AppendUint(dst, seq, 10)
	for len(dst)-start < tcpValueLen {
		dst = append(dst, '.')
	}
	return dst
}

func appendKey(dst []byte, key int) []byte {
	dst = append(dst, "key:"...)
	var digits [10]byte
	for i := 9; i >= 0; i-- {
		digits[i] = byte('0' + key%10)
		key /= 10
	}
	return append(dst, digits[:]...)
}

// appendBulk appends one RESP bulk string.
func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// request is one in-flight command.
type request struct {
	sent int64 // ns since the connection's clock base
	get  bool
	key  int
	seq  uint64 // GET: the ledger's value when sent; SET: the value written
}

// tcpClient is one closed-loop connection. It writes only its own key
// partition (key % conns == id) and keeps a ledger of the last value it
// wrote to each key, so every reply can be checked.
type tcpClient struct {
	spec   tcpSpec
	id     int
	nc     net.Conn
	rng    *rand.Rand
	ledger []uint64 // by key / conns
	seq    uint64

	base     time.Time
	wbuf     []byte
	rbuf     []byte
	kbuf     []byte
	inflight []request
	head     int

	// Per recorded loop: request latencies, completions per sliceLen
	// slice, and all completions (the drain after the deadline too).
	lat     *stats.Histogram
	slices  []uint64
	loopOps uint64

	issued  uint64
	errs    uint64
	badRead error
}

func newTCPClient(spec tcpSpec, id int, seed int64) *tcpClient {
	return &tcpClient{
		spec:   spec,
		id:     id,
		rng:    rand.New(rand.NewSource(seed*1000 + int64(id))),
		ledger: make([]uint64, (spec.keys-id+spec.conns-1)/spec.conns),
		base:   time.Now(),
		rbuf:   make([]byte, 0, 64<<10),
	}
}

func (c *tcpClient) now() int64 { return int64(time.Since(c.base)) }

// next appends the next generated command of this connection's stream.
func (c *tcpClient) next(dst []byte) ([]byte, request) {
	key := c.id + c.spec.conns*c.rng.Intn(len(c.ledger))
	c.kbuf = appendKey(c.kbuf[:0], key)
	if c.rng.Float64() < c.spec.getRatio {
		dst = append(dst, "*2\r\n$3\r\nGET\r\n"...)
		dst = appendBulk(dst, c.kbuf)
		return dst, request{get: true, key: key, seq: c.ledger[key/c.spec.conns]}
	}
	c.seq++
	c.ledger[key/c.spec.conns] = c.seq
	dst = append(dst, "*3\r\n$3\r\nSET\r\n"...)
	dst = appendBulk(dst, c.kbuf)
	c.kbuf = appendValue(c.kbuf[:0], key, c.seq)
	dst = appendBulk(dst, c.kbuf)
	return dst, request{key: key, seq: c.seq}
}

// send writes the queued commands, stamping them with the send time.
func (c *tcpClient) send(from int) error {
	t := c.now()
	for i := from; i < len(c.inflight); i++ {
		c.inflight[i].sent = t
	}
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// parseReply parses one RESP reply at the head of b: kind is '+', '-' or
// '$' (payload nil for a nil bulk); n=0 means more bytes are needed.
func parseReply(b []byte) (kind byte, payload []byte, n int, err error) {
	end := bytes.Index(b, []byte("\r\n"))
	if end < 0 {
		return 0, nil, 0, nil
	}
	switch b[0] {
	case '+', '-':
		return b[0], b[1:end], end + 2, nil
	case '$':
		l, err := strconv.Atoi(string(b[1:end]))
		if err != nil {
			return 0, nil, 0, fmt.Errorf("bad bulk length %q", b[1:end])
		}
		if l < 0 {
			return '$', nil, end + 2, nil
		}
		if len(b) < end+2+l+2 {
			return 0, nil, 0, nil
		}
		return '$', b[end+2 : end+2+l], end + 2 + l + 2, nil
	}
	return 0, nil, 0, fmt.Errorf("unexpected reply byte %q", b[0])
}

// complete checks one reply against the request it answers.
func (c *tcpClient) complete(r request, kind byte, payload []byte) {
	if !r.get {
		if kind != '+' || string(payload) != "OK" {
			c.errs++
		}
		return
	}
	c.kbuf = appendValue(c.kbuf[:0], r.key, r.seq)
	if kind != '$' || payload == nil || !bytes.Equal(payload, c.kbuf) {
		c.errs++
		if c.badRead == nil {
			c.badRead = fmt.Errorf("conn %d: GET key:%010d returned %q, want %q", c.id, r.key, payload, c.kbuf)
		}
	}
}

// loop runs the closed loop until the deadline, then drains. With record
// set it keeps each request's latency and the completions per slice.
func (c *tcpClient) loop(deadline time.Time, record bool) error {
	c.lat, c.slices, c.loopOps = stats.NewHistogram(), nil, 0
	loopStart := c.now()
	stop := int64(deadline.Sub(c.base))
	c.inflight, c.head = c.inflight[:0], 0
	for len(c.inflight) < c.spec.depth {
		var r request
		c.wbuf, r = c.next(c.wbuf)
		c.inflight = append(c.inflight, r)
		c.issued++
	}
	if err := c.send(0); err != nil {
		return err
	}
	for c.head < len(c.inflight) {
		if len(c.rbuf) == cap(c.rbuf) {
			c.rbuf = append(c.rbuf, 0)[:len(c.rbuf)]
		}
		n, err := c.nc.Read(c.rbuf[len(c.rbuf):cap(c.rbuf)])
		if err != nil {
			return err
		}
		c.rbuf = c.rbuf[:len(c.rbuf)+n]
		t := c.now()
		pos, completed := 0, 0
		for c.head < len(c.inflight) {
			kind, payload, m, err := parseReply(c.rbuf[pos:])
			if err != nil {
				return err
			}
			if m == 0 {
				break
			}
			r := c.inflight[c.head]
			c.head++
			c.complete(r, kind, payload)
			pos += m
			completed++
			c.loopOps++
			if record {
				c.lat.Record(sim.Duration(t - r.sent))
				s := int((t - loopStart) / int64(sliceLen))
				for len(c.slices) <= s {
					c.slices = append(c.slices, 0)
				}
				c.slices[s]++
			}
		}
		c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[pos:])]
		if t >= stop || completed == 0 {
			continue
		}
		// Compact the window so it does not grow without bound.
		if c.head > 4*c.spec.depth {
			c.inflight = c.inflight[:copy(c.inflight, c.inflight[c.head:])]
			c.head = 0
		}
		from := len(c.inflight)
		for i := 0; i < completed; i++ {
			var r request
			c.wbuf, r = c.next(c.wbuf)
			c.inflight = append(c.inflight, r)
			c.issued++
		}
		if err := c.send(from); err != nil {
			return err
		}
	}
	return nil
}

// preload writes this connection's partition with pipelined SETs; the
// ledger starts at sequence 0 for every key.
func (c *tcpClient) preload() error {
	const batch = 512
	for start := 0; start < len(c.ledger); start += batch {
		n := 0
		for i := start; i < len(c.ledger) && i < start+batch; i++ {
			key := c.id + c.spec.conns*i
			c.kbuf = appendKey(c.kbuf[:0], key)
			c.wbuf = append(c.wbuf, "*3\r\n$3\r\nSET\r\n"...)
			c.wbuf = appendBulk(c.wbuf, c.kbuf)
			c.kbuf = appendValue(c.kbuf[:0], key, 0)
			c.wbuf = appendBulk(c.wbuf, c.kbuf)
			n++
		}
		if _, err := c.nc.Write(c.wbuf); err != nil {
			return err
		}
		c.wbuf = c.wbuf[:0]
		if err := c.expect(n, func(kind byte, payload []byte) {
			if kind != '+' {
				c.errs++
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// expect reads n replies, passing each to fn.
func (c *tcpClient) expect(n int, fn func(kind byte, payload []byte)) error {
	for n > 0 {
		for {
			kind, payload, m, err := parseReply(c.rbuf)
			if err != nil {
				return err
			}
			if m == 0 {
				break
			}
			fn(kind, payload)
			c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[m:])]
			if n--; n == 0 {
				return nil
			}
		}
		if len(c.rbuf) == cap(c.rbuf) {
			c.rbuf = append(c.rbuf, 0)[:len(c.rbuf)]
		}
		m, err := c.nc.Read(c.rbuf[len(c.rbuf):cap(c.rbuf)])
		if err != nil {
			return err
		}
		c.rbuf = c.rbuf[:len(c.rbuf)+m]
	}
	return nil
}

// checkLedger reads every key of the partition back and compares it with
// the last value this connection wrote. It returns the mismatch count and
// the first mismatch.
func (c *tcpClient) checkLedger() (int, error) {
	const batch = 512
	bad := 0
	var first error
	for start := 0; start < len(c.ledger); start += batch {
		end := min(start+batch, len(c.ledger))
		for i := start; i < end; i++ {
			c.kbuf = appendKey(c.kbuf[:0], c.id+c.spec.conns*i)
			c.wbuf = append(c.wbuf, "*2\r\n$3\r\nGET\r\n"...)
			c.wbuf = appendBulk(c.wbuf, c.kbuf)
		}
		if _, err := c.nc.Write(c.wbuf); err != nil {
			return bad, err
		}
		c.wbuf = c.wbuf[:0]
		i := start
		var want []byte
		if err := c.expect(end-start, func(kind byte, payload []byte) {
			key := c.id + c.spec.conns*i
			want = appendValue(want[:0], key, c.ledger[i])
			if kind != '$' || !bytes.Equal(payload, want) {
				bad++
				if first == nil {
					first = fmt.Errorf("conn %d: key:%010d reads %q, ledger says %q", c.id, key, payload, want)
				}
			}
			i++
		}); err != nil {
			return bad, err
		}
	}
	return bad, first
}

// tcpSetup is one running server with its connected clients.
type tcpSetup struct {
	srv     *netserver.Server
	served  chan error
	clients []*tcpClient
}

func (s *tcpSetup) close() error {
	for _, c := range s.clients {
		if c.nc != nil {
			c.nc.Close()
		}
	}
	err := s.srv.Close()
	return errors.Join(err, <-s.served)
}

// setupTCP starts a server, connects the clients, preloads every key and
// runs the warm-up loop.
func setupTCP(spec tcpSpec, seed int64) (*tcpSetup, spans, error) {
	var sp spans
	t0 := time.Now()
	srv, err := netserver.New(netserver.Options{Seed: seed + 1})
	if err != nil {
		return nil, sp, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, sp, err
	}
	s := &tcpSetup{srv: srv, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	fail := func(err error) (*tcpSetup, spans, error) {
		return nil, sp, errors.Join(err, s.close())
	}
	for i := 0; i < spec.conns; i++ {
		c := newTCPClient(spec, i, seed)
		if c.nc, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return fail(err)
		}
		s.clients = append(s.clients, c)
	}
	t1 := time.Now()
	if err := s.each(func(c *tcpClient) error { return c.preload() }); err != nil {
		return fail(err)
	}
	t2 := time.Now()
	deadline := time.Now().Add(spec.warmup)
	if err := s.each(func(c *tcpClient) error { return c.loop(deadline, false) }); err != nil {
		return fail(err)
	}
	t3 := time.Now()
	sp = spans{build: t1.Sub(t0).Seconds(), preload: t2.Sub(t1).Seconds(), warmup: t3.Sub(t2).Seconds()}
	return s, sp, nil
}

// each runs fn on every client concurrently and waits for all of them.
func (s *tcpSetup) each(fn func(c *tcpClient) error) error {
	errs := make(chan error, len(s.clients))
	for _, c := range s.clients {
		go func(c *tcpClient) { errs <- fn(c) }(c)
	}
	var err error
	for range s.clients {
		err = errors.Join(err, <-errs)
	}
	return err
}

// tcpWindow is what one timed window measured: the latencies of its
// requests and the completion rate in each sliceLen slice of it.
type tcpWindow struct {
	wallS      float64
	ops        uint64
	lat        *stats.Histogram
	sliceKops  []float64
	mem0, mem1 runtime.MemStats
}

func measureTCP(s *tcpSetup, seconds int) (*tcpWindow, error) {
	w := &tcpWindow{}
	runtime.ReadMemStats(&w.mem0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	if err := s.each(func(c *tcpClient) error { return c.loop(deadline, true) }); err != nil {
		return nil, err
	}
	w.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&w.mem1)
	for _, c := range s.clients {
		w.ops += c.loopOps
	}
	w.lat = stats.NewHistogram()
	slices := make([]uint64, seconds*int(time.Second/sliceLen))
	for _, c := range s.clients {
		w.lat.Merge(c.lat)
		for i := range slices {
			if i < len(c.slices) {
				slices[i] += c.slices[i]
			}
		}
	}
	for _, n := range slices {
		w.sliceKops = append(w.sliceKops, float64(n)/1000/sliceLen.Seconds())
	}
	return w, nil
}

// runTCP runs the real-server workload: set-up several times, one timed
// window (two when traced), the replay of the stream through the parser
// and the store alone (traced), and the ledger gate.
func runTCP(spec tcpSpec, seed int64, seconds int, trace bool) (out *outcome, err error) {
	out = newOutcome()
	var s *tcpSetup
	var all []spans
	setupShares, err := profiled(trace, "tcp-loopback-setup", func() error {
		for i := 0; i < setups; i++ {
			if s != nil {
				err := s.close()
				s = nil
				if err != nil {
					return err
				}
			}
			runtime.GC()
			var sp spans
			var err error
			if s, sp, err = setupTCP(spec, seed); err != nil {
				return err
			}
			all = append(all, sp)
		}
		return nil
	})
	if s != nil {
		defer func() { err = errors.Join(err, s.close()) }()
	}
	if err != nil {
		return nil, err
	}
	setSpans(out, all)
	var w *tcpWindow
	shares, err := profiled(trace, "tcp-loopback-window", func() (err error) {
		w, err = measureTCP(s, seconds)
		return err
	})
	if err != nil {
		return nil, err
	}

	ops := float64(w.ops)
	out.set("kops", ops/w.wallS/1000)
	out.set("p50_us", interpPercentile(w.lat, 50)/1e3)
	out.set("p95_us", interpPercentile(w.lat, 95)/1e3)
	out.set("latency.p99_us", interpPercentile(w.lat, 99)/1e3)
	out.set("wall_kops", median(w.sliceKops))
	out.set("client.latency_samples", float64(w.lat.Count()))
	out.set("go.alloc_bytes_per_op", ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc), ops))
	out.set("go.allocs_per_op", ratio(float64(w.mem1.Mallocs-w.mem0.Mallocs), ops))
	out.set("go.gc_cycles", float64(w.mem1.NumGC-w.mem0.NumGC))
	out.note("%d connections x depth %d for %.3f s wall: %d ops; latency samples %d (percentiles over all of them)",
		spec.conns, spec.depth, w.wallS, w.ops, w.lat.Count())
	for _, name := range simOnly {
		out.set(name, 0)
	}
	if trace {
		setShares(out, setupShares, shares)
		untraced, err := measureTCP(s, seconds)
		if err != nil {
			return nil, err
		}
		out.set("trace.overhead_pct", (ratio(median(untraced.sliceKops), median(w.sliceKops))-1)*100)
		parse, exec := replay(spec, seed)
		out.set("resp.parse_ns_per_cmd", parse)
		out.set("store.exec_ns_per_op", exec)
		out.set("netserver.residual_ns_per_op", w.wallS*1e9/ops-parse-exec)
	}

	t := time.Now()
	var errs []error
	for _, c := range s.clients {
		bad, err := c.checkLedger()
		errs = append(errs, err, c.badRead)
		out.attempted += c.issued + uint64(len(c.ledger))
		out.failed += c.errs + uint64(bad)
	}
	out.set("span.check_s", time.Since(t).Seconds())
	if out.failed > 0 {
		errs = append(errs, fmt.Errorf("%d failed requests (error replies, mismatched GETs, ledger mismatches)", out.failed))
	}
	if out.gate = errors.Join(errs...); out.gate == nil {
		out.note("gate: every GET during the run and every ledger key read back matched")
	}
	out.set("client.error_rate", ratio(float64(out.failed), float64(out.attempted)))
	return out, nil
}

// simOnly are the per-layer metrics of layers only the simulated
// deployments run.
var simOnly = []string{
	"sim.events_per_op", "sim.wall_ns_per_event",
	"rdma.wrs_per_op", "rdma.cq_wakeups_per_completion",
	"fabric.msgs_per_op", "fabric.bytes_per_op", "fabric.dropped", "fabric.retransmits",
	"server.master_util", "server.shard_util_max", "server.route_util_max",
	"server.set_service_us", "server.get_service_us", "server.shard.barriers",
	"repl.cmds_per_flush", "repl.bytes_per_write", "hostkv.repl_reqs_per_write",
	"nickv.stream_frames_per_write", "nic.util", "client.hit_rate",
	"client.invalidations_per_write", "nickv.track.invalidations",
	"slots.moved", "slots.group_imbalance",
}

// replay times the workload's own generated stream through resp.Reader
// alone and through store.Exec alone (on a store preloaded like the
// server's), returning the median ns per command of five passes each.
func replay(spec tcpSpec, seed int64) (parseNS, execNS float64) {
	var stream []byte
	var argvs [][][]byte
	per := spec.replayCmds / spec.conns
	for id := 0; id < spec.conns; id++ {
		c := newTCPClient(spec, id, seed)
		for i := 0; i < per; i++ {
			stream, _ = c.next(stream)
		}
	}
	var r resp.Reader
	r.Feed(stream)
	for {
		argv, ok, err := r.ReadCommand()
		if err != nil || !ok {
			break
		}
		cp := make([][]byte, len(argv))
		for i, a := range argv {
			cp[i] = append([]byte(nil), a...)
		}
		argvs = append(argvs, cp)
	}
	const chunk = 16 << 10
	var parses, execs []float64
	for pass := 0; pass < 5; pass++ {
		var r resp.Reader
		n := 0
		t := time.Now()
		for off := 0; off < len(stream); off += chunk {
			r.Feed(stream[off:min(off+chunk, len(stream))])
			for {
				_, ok, err := r.ReadCommand()
				if err != nil || !ok {
					break
				}
				n++
			}
		}
		parses = append(parses, ratio(float64(time.Since(t).Nanoseconds()), float64(n)))

		st := store.New(store.Options{DBs: 16, Seed: seed + 1})
		var v []byte
		for key := 0; key < spec.keys; key++ {
			k := appendKey(nil, key)
			v = appendValue(v[:0], key, 0)
			st.Exec(0, [][]byte{[]byte("SET"), k, append([]byte(nil), v...)})
		}
		t = time.Now()
		for _, argv := range argvs {
			st.Exec(0, argv)
		}
		execs = append(execs, ratio(float64(time.Since(t).Nanoseconds()), float64(len(argvs))))
	}
	return median(parses), median(execs)
}
