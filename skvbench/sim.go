package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/resp"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
)

// simSpec is one simulated workload: a deployment, the keys preloaded on
// it, and its virtual windows.
type simSpec struct {
	name   string
	config func(seed int64) cluster.Config
	// preload keys are installed on each key's owning master before the
	// initial full sync, so the sync carries them to the slaves.
	preload int
	warmup  sim.Duration
	// perSecond is the virtual window measured per requested wall second.
	// It is fixed, not measured, so the virtual metrics of a seed do not
	// depend on how fast the machine is.
	perSecond sim.Duration
}

// simSlices splits each window for the wall-clock speed metric (median of
// per-slice rates, so one stall does not move it).
const simSlices = 10

func (s simSpec) window(seconds int) sim.Duration { return sim.Duration(seconds) * s.perSecond }

// paperSet is the paper's Fig 11 path: SKV, one master and three slaves,
// the default single-threaded host, 8 closed-loop SET clients.
var paperSet = simSpec{
	name: "paper-set",
	config: func(seed int64) cluster.Config {
		return cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: seed,
			KeySpace: 10_000, ValueSize: 64, SKV: core.DefaultConfig()}
	},
	warmup:    50 * sim.Millisecond,
	perSecond: 110 * sim.Millisecond,
}

// scaleoutRead runs the same servers for reads beside writes: two masters
// with one slave each and ext-cluster's per-master tuning, slot-aware
// tracked clients, 90% Zipfian GETs over a keyspace 24x the client cache.
var scaleoutRead = simSpec{
	name: "scaleout-read-tracked",
	config: func(seed int64) cluster.Config {
		p := model.Default()
		p.HostShards = 4
		p.RouteListeners = 2
		p.ReplBatchMaxCmds = 8
		p.ReplBatchMaxDelay = 5 * sim.Microsecond
		return cluster.Config{Kind: cluster.KindSKV, Clients: 8, Pipeline: 1, Seed: seed,
			Params: &p, SKV: core.DefaultConfig(),
			KeySpace: 100_000, ValueSize: 64, GetRatio: 0.9, Zipf: true, ZipfS: 1.1,
			Tracking: true,
			Cluster:  cluster.ClusterOpts{Masters: 2, SlavesPerMaster: 1}}
	},
	preload:   100_000,
	warmup:    50 * sim.Millisecond,
	perSecond: 40 * sim.Millisecond,
}

// spans are the wall-clock phases of one set-up.
type spans struct{ build, preload, sync, warmup float64 }

func (s spans) total() float64 { return s.build + s.preload + s.sync + s.warmup }

// preloadKey and preloadValue name the preloaded entries; keys have the
// workload generator's format. The values differ from the generator's SET
// payload, so a cached value that survived a later SET would be caught as
// stale.
func preloadKey(i int) string { return string(appendKey(nil, i)) }

func preloadValue(i int) []byte {
	v := []byte(fmt.Sprintf("preload:%010d:", i))
	for len(v) < 64 {
		v = append(v, '.')
	}
	return v
}

// setupSim builds the deployment, preloads it, waits for the initial full
// sync, starts the clients and runs the warm-up.
func setupSim(spec simSpec, seed int64) (*cluster.Cluster, spans, error) {
	var sp spans
	t0 := time.Now()
	c := cluster.Build(spec.config(seed))
	t1 := time.Now()
	for i := 0; i < spec.preload; i++ {
		key := preloadKey(i)
		_, dirty := ownerOf(c, key).Store().Exec(0, [][]byte{[]byte("SET"), []byte(key), preloadValue(i)})
		if !dirty {
			return nil, sp, fmt.Errorf("preload of %s did not write", key)
		}
	}
	t2 := time.Now()
	if !c.AwaitReplication(5 * sim.Second) {
		return nil, sp, fmt.Errorf("initial full sync did not finish in 5s virtual")
	}
	t3 := time.Now()
	c.StartClients()
	until := c.Eng.Now().Add(spec.warmup)
	for _, cl := range c.Clients {
		cl.SetWarmup(until)
	}
	c.Run(until)
	t4 := time.Now()
	sp = spans{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()}
	return c, sp, nil
}

// clientTotals sums the workload clients' counters.
type clientTotals struct {
	sent, done, errs, hits, misses, invalidations uint64
}

func totals(c *cluster.Cluster) clientTotals {
	var t clientTotals
	for _, cl := range c.Clients {
		st := cl.Stats()
		t.sent += st.Sent
		t.done += st.Done
		t.errs += st.ErrReplies
		t.hits += st.Hits
		t.misses += st.Misses
		t.invalidations += st.Invalidations
	}
	return t
}

// window is what one timed window measured.
type window struct {
	res        cluster.Result
	wallS      float64
	sliceKops  []float64
	events     uint64
	before     []metrics.Snapshot
	after      []metrics.Snapshot
	cb, ca     clientTotals
	mem0, mem1 runtime.MemStats
}

func (w *window) ops() uint64 { return w.ca.done - w.cb.done }

// measureWindow runs one timed window of d virtual time. Observer events
// at slice boundaries read the wall clock; they touch no simulated state,
// so the virtual results are the same as without them.
func measureWindow(c *cluster.Cluster, d sim.Duration, slices int) *window {
	w := &window{before: c.Snapshots(), cb: totals(c)}
	start := c.Eng.Now()
	marks := make([]time.Time, slices+1)
	done := make([]uint64, slices+1)
	for i := 1; i <= slices; i++ {
		i := i
		c.Eng.At(start.Add(d*sim.Duration(i)/sim.Duration(slices)), func() {
			marks[i] = time.Now()
			done[i] = totals(c).done
		})
	}
	ev0 := c.Eng.Processed
	runtime.ReadMemStats(&w.mem0)
	marks[0], done[0] = time.Now(), w.cb.done
	w.res = c.Measure(0, d)
	w.wallS = time.Since(marks[0]).Seconds()
	runtime.ReadMemStats(&w.mem1)
	w.events = c.Eng.Processed - ev0 - uint64(slices)
	for i := 1; i <= slices; i++ {
		w.sliceKops = append(w.sliceKops, float64(done[i]-done[i-1])/marks[i].Sub(marks[i-1]).Seconds()/1000)
	}
	w.after = c.Snapshots()
	w.ca = totals(c)
	return w
}

// runSim runs one simulated workload: set-up several times, one timed
// window (two when traced: traced, then untraced for the overhead), and
// the correctness gates.
func runSim(spec simSpec, seed int64, d sim.Duration, trace bool) (*outcome, error) {
	out := newOutcome()
	var c *cluster.Cluster
	var all []spans
	setupShares, err := profiled(trace, spec.name+"-setup", func() error {
		for i := 0; i < setups; i++ {
			c = nil // let the previous deployment be collected
			runtime.GC()
			var sp spans
			var err error
			if c, sp, err = setupSim(spec, seed); err != nil {
				return err
			}
			all = append(all, sp)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	setSpans(out, all)
	var w *window
	shares, err := profiled(trace, spec.name+"-window", func() error {
		w = measureWindow(c, d, simSlices)
		return nil
	})
	if err != nil {
		return nil, err
	}

	agg := stats.NewHistogram()
	for _, cl := range c.Clients {
		agg.Merge(cl.Histogram())
	}
	ops := w.ops()
	out.set("kops", float64(w.res.Ops)/d.Seconds()/1000)
	out.set("p50_us", interpPercentile(agg, 50)/1e3)
	out.set("p95_us", interpPercentile(agg, 95)/1e3)
	out.set("latency.p99_us", interpPercentile(agg, 99)/1e3)
	out.set("wall_kops", median(w.sliceKops))
	out.note("virtual window %v after %v warm-up; %d ops, %.3f s wall; latency samples %d (percentiles over all of them); avg %.2f us",
		time.Duration(d), time.Duration(spec.warmup), ops, w.wallS, agg.Count(), agg.Mean().Micros())
	out.note("result: %s", w.res)
	out.note("wall kops per slice: %.1f", w.sliceKops)
	setLayers(out, w)
	if trace {
		setShares(out, setupShares, shares)
		// The same window length again without the profiler: the ratio of
		// the two wall-clock speeds is the tracing overhead.
		untraced := measureWindow(c, d, simSlices)
		out.set("trace.overhead_pct", (ratio(median(untraced.sliceKops), median(w.sliceKops))-1)*100)
	}

	t := time.Now()
	checked, gate := checkSim(c, spec)
	out.set("span.check_s", time.Since(t).Seconds())
	out.gate = gate
	out.note("gate: %s", checked)

	final := totals(c)
	unanswered := final.sent - (final.done - final.hits)
	out.attempted = final.done + unanswered
	out.failed = final.errs + unanswered
	out.set("client.error_rate", float64(out.failed)/float64(out.attempted))
	out.set("client.latency_samples", float64(agg.Count()))
	return out, nil
}

// setSpans records set-up time (median of the set-ups) and each phase.
func setSpans(out *outcome, all []spans) {
	var tot, b, p, s, w []float64
	for _, sp := range all {
		tot = append(tot, sp.total())
		b = append(b, sp.build)
		p = append(p, sp.preload)
		s = append(s, sp.sync)
		w = append(w, sp.warmup)
	}
	out.set("setup_s", median(tot))
	out.set("span.build_s", median(b))
	out.set("span.preload_s", median(p))
	out.set("span.sync_s", median(s))
	out.set("span.warmup_s", median(w))
	out.note("setup_s over %d set-ups: %v", len(tot), tot)
}

// isMasterSide reports whether a registry belongs to a master host (its
// main, shard or route registries; not its SmartNIC).
func isMasterSide(node string) bool {
	root, rest, _ := strings.Cut(node, "/")
	return (root == "master" || strings.HasSuffix(root, ".master")) && rest != "nic"
}

// counterDelta sums, over the registries pick accepts, the window delta
// of every counter match accepts.
func counterDelta(w *window, pick func(node string) bool, match func(name string) bool) float64 {
	sum := func(snaps []metrics.Snapshot) float64 {
		var t float64
		for _, s := range snaps {
			if !pick(s.Node) {
				continue
			}
			for name, v := range s.Counters {
				if match(name) {
					t += float64(v)
				}
			}
		}
		return t
	}
	return sum(w.after) - sum(w.before)
}

func anyNode(string) bool              { return true }
func named(n string) func(string) bool { return func(s string) bool { return s == n } }
func prefixed(p string) func(string) bool {
	return func(s string) bool { return strings.HasPrefix(s, p) }
}

// serviceMeanUS is the window mean of a master-side service histogram.
func serviceMeanUS(w *window, hist string) float64 {
	sum := func(snaps []metrics.Snapshot) (n, total float64) {
		for _, s := range snaps {
			if h, ok := s.Hists[hist]; ok && isMasterSide(s.Node) {
				n += float64(h.Count)
				total += float64(h.Count) * float64(h.Mean)
			}
		}
		return
	}
	n0, t0 := sum(w.before)
	n1, t1 := sum(w.after)
	return ratio(t1-t0, n1-n0) / 1e3
}

// setLayers derives the per-layer metrics of one window.
func setLayers(out *outcome, w *window) {
	ops := float64(w.ops())
	writes := counterDelta(w, isMasterSide, named("server.cmd.set.calls"))
	out.set("sim.events_per_op", ratio(float64(w.events), ops))
	out.set("sim.wall_ns_per_event", ratio(w.wallS*1e9, float64(w.events)))
	out.set("go.alloc_bytes_per_op", ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc), ops))
	out.set("go.allocs_per_op", ratio(float64(w.mem1.Mallocs-w.mem0.Mallocs), ops))
	out.set("go.gc_cycles", float64(w.mem1.NumGC-w.mem0.NumGC))
	out.set("rdma.wrs_per_op", ratio(counterDelta(w, anyNode, prefixed("rdma.wr.")), ops))
	out.set("rdma.cq_wakeups_per_completion", ratio(counterDelta(w, anyNode, named("rdma.cq.wakeups")),
		counterDelta(w, anyNode, named("rdma.cq.completions"))))
	out.set("fabric.msgs_per_op", ratio(counterDelta(w, anyNode, named("fabric.tx.msgs")), ops))
	out.set("fabric.bytes_per_op", ratio(counterDelta(w, anyNode, named("fabric.tx.bytes")), ops))
	var dropped, retrans float64
	for _, s := range w.after {
		dropped += float64(s.Counters["fabric.dropped"])
		retrans += float64(s.Counters["fabric.retransmits"])
	}
	out.set("fabric.dropped", dropped)
	out.set("fabric.retransmits", retrans)
	out.set("server.master_util", w.res.MasterUtil)
	out.set("server.shard_util_max", maxOf(w.res.ShardUtils))
	out.set("server.route_util_max", maxOf(w.res.RouteUtils))
	out.set("server.set_service_us", serviceMeanUS(w, "server.cmd.set.service"))
	out.set("server.get_service_us", serviceMeanUS(w, "server.cmd.get.service"))
	out.set("server.shard.barriers", counterDelta(w, anyNode, named("server.shard.barriers")))
	out.set("repl.cmds_per_flush", ratio(counterDelta(w, isMasterSide, named("repl.stream.cmds")),
		counterDelta(w, isMasterSide, prefixed("repl.flush."))))
	out.set("repl.bytes_per_write", ratio(counterDelta(w, isMasterSide, named("repl.stream.bytes")), writes))
	out.set("hostkv.repl_reqs_per_write", ratio(counterDelta(w, anyNode, named("hostkv.repl_reqs")), writes))
	out.set("nickv.stream_frames_per_write", ratio(counterDelta(w, anyNode, named("nickv.stream.sent")), writes))
	out.set("nic.util", w.res.NicUtil)
	hits := float64(w.ca.hits - w.cb.hits)
	out.set("client.hit_rate", ratio(hits, hits+float64(w.ca.misses-w.cb.misses)))
	out.set("client.invalidations_per_write", ratio(float64(w.ca.invalidations-w.cb.invalidations), writes))
	out.set("nickv.track.invalidations", counterDelta(w, anyNode, named("nickv.track.invalidations")))
	out.set("slots.moved", float64(w.res.Moved))
	imbalance := 1.0
	if len(w.res.GroupOps) > 1 {
		lo, hi := w.res.GroupOps[0], w.res.GroupOps[0]
		for _, n := range w.res.GroupOps {
			lo, hi = min(lo, n), max(hi, n)
		}
		imbalance = ratio(float64(hi), float64(lo))
	}
	out.set("slots.group_imbalance", imbalance)
	// Layers only the real server runs.
	for _, name := range []string{"resp.parse_ns_per_cmd", "store.exec_ns_per_op", "netserver.residual_ns_per_op"} {
		out.set(name, 0)
	}
}

// checkSim stops the clients, drains, and runs the correctness gates:
// every group converged (each slave holds its master's keyspace at its
// offset), no error replies, no unanswered requests, and every tracked
// client-cache entry equal to the owning master's value.
func checkSim(c *cluster.Cluster, spec simSpec) (string, error) {
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(50 * sim.Millisecond)
	var errs []string
	if err := c.CheckConvergence(); err != nil {
		errs = append(errs, err.Error())
	}
	t := totals(c)
	if t.errs != 0 {
		errs = append(errs, fmt.Sprintf("%d error replies", t.errs))
	}
	if unanswered := t.sent - (t.done - t.hits); unanswered != 0 {
		errs = append(errs, fmt.Sprintf("%d requests unanswered after drain", unanswered))
	}
	cached, stale := checkCaches(c)
	if stale > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d cached entries stale", stale, cached))
	}
	summary := fmt.Sprintf("converged; %d requests, 0 errors; %d cached entries all equal to their master's value", t.done, cached)
	if len(errs) > 0 {
		return "failed", fmt.Errorf("%s: %s", spec.name, strings.Join(errs, "; "))
	}
	return summary, nil
}

// checkCaches compares every tracked client-cache entry with the value its
// owning master holds now.
func checkCaches(c *cluster.Cluster) (cached, stale int) {
	for _, cl := range c.Clients {
		for k, v := range cl.CacheEntries() {
			cached++
			reply, _ := ownerOf(c, k).Store().Exec(0, [][]byte{[]byte("GET"), []byte(k)})
			if !bytes.Equal(reply, resp.AppendBulkString(nil, v)) {
				stale++
			}
		}
	}
	return cached, stale
}

// ownerOf is the master that owns key's hash slot (the only master on a
// single-master deployment).
func ownerOf(c *cluster.Cluster, key string) *server.Server {
	if c.SlotMap == nil {
		return c.Master
	}
	return c.Groups[c.SlotMap.Owner(slots.Slot([]byte(key)))].Master
}
