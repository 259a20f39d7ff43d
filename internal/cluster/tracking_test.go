package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/store"
	"skv/internal/tcpsim"
	"skv/internal/transport"
)

// ---- helpers ------------------------------------------------------------

// rawClient is a hand-driven connection for protocol-level tests: it
// collects every RESP value the peer sends.
type rawClient struct {
	conn transport.Conn
	vals []resp.Value
}

// dialRaw connects to ep:port with the deployment's client transport.
func dialRaw(t *testing.T, c *Cluster, name string, ep *fabric.Endpoint, port int) *rawClient {
	t.Helper()
	m := c.Net.NewMachine(name, false)
	proc := sim.NewProc(c.Eng, sim.NewCore(c.Eng, name+"-core", 1.0), c.Params.ClientWakeup)
	var stack transport.Stack
	if c.Cfg.Kind == KindTCP {
		stack = tcpsim.New(c.Net, m.Host, proc)
	} else {
		stack = rconn.New(c.Net, m.Host, proc)
	}
	rc := &rawClient{}
	stack.Dial(ep, port, func(conn transport.Conn, err error) {
		if err != nil {
			t.Errorf("%s: dial failed: %v", name, err)
			return
		}
		rc.conn = conn
		var r resp.Reader
		conn.SetHandler(func(data []byte) {
			r.Feed(data)
			for {
				v, ok, _ := r.ReadValue()
				if !ok {
					break
				}
				rc.vals = append(rc.vals, v)
			}
		})
	})
	c.Eng.RunFor(20 * sim.Millisecond)
	if rc.conn == nil {
		t.Fatalf("%s: never connected", name)
	}
	return rc
}

// storeVal reads one string key straight from a store, decoded.
func storeVal(t *testing.T, s *store.Store, key string) (string, bool) {
	t.Helper()
	reply, _ := s.Exec(0, [][]byte{[]byte("GET"), []byte(key)})
	var r resp.Reader
	r.Feed(reply)
	v, ok, err := r.ReadValue()
	if err != nil || !ok {
		t.Fatalf("undecodable GET reply for %q: %q", key, reply)
	}
	if v.Null || v.Type != resp.TypeBulk {
		return "", false
	}
	return string(v.Str), true
}

// aliveMaster finds the server currently holding the master role in one
// replication group (after a failover it may be a promoted slave).
func aliveMaster(t *testing.T, label string, master *server.Server, slaves []*server.Server) *server.Server {
	t.Helper()
	if master.Alive() && master.Role() == server.RoleMaster {
		return master
	}
	for _, s := range slaves {
		if s.Alive() && s.Role() == server.RoleMaster {
			return s
		}
	}
	t.Fatalf("%s: no alive master", label)
	return nil
}

// ownerStore resolves the authoritative store for a key: the owning
// group's current master in a hash-slot deployment, the (possibly
// promoted) master otherwise.
func ownerStore(t *testing.T, c *Cluster, key string) *store.Store {
	t.Helper()
	if len(c.Groups) > 0 {
		g := c.Groups[c.SlotMap.Owner(slots.Slot([]byte(key)))]
		return aliveMaster(t, fmt.Sprintf("g%d", g.Index), g.Master, g.Slaves).Store()
	}
	return aliveMaster(t, "cluster", c.Master, c.Slaves).Store()
}

// requireCachesCoherent is the staleness oracle: at quiesce, every entry a
// tracked client still caches must be byte-equal to the value the key's
// authoritative owner currently serves. A mismatch — or a cached key the
// owner no longer holds — is a stale locally-served read that survived.
// Returns the aggregate tracking counters for signal assertions.
func requireCachesCoherent(t *testing.T, label string, c *Cluster) (hits, invals uint64, entries int) {
	t.Helper()
	var errReplies uint64
	for _, cl := range c.Clients {
		st := cl.Stats()
		hits += st.Hits
		invals += st.Invalidations
		errReplies += st.ErrReplies
		for k, v := range cl.CacheEntries() {
			want, okV := storeVal(t, ownerStore(t, c, k), k)
			if !okV {
				t.Fatalf("%s: %s caches %q=%q but the owner no longer holds the key",
					label, cl.Name(), k, v)
			}
			if want != v {
				t.Fatalf("%s: stale cache entry on %s: %q=%q, owner serves %q",
					label, cl.Name(), k, v, want)
			}
			entries++
		}
	}
	if errReplies != 0 {
		t.Fatalf("%s: %d error replies leaked to tracked clients", label, errReplies)
	}
	return hits, invals, entries
}

// runTracked drives a built cluster's workload clients and settles.
func runTracked(t *testing.T, c *Cluster, load, settle sim.Duration) {
	t.Helper()
	if c.Cfg.Kind == KindSKV && !c.AwaitReplication(2*sim.Second) {
		t.Fatal("initial replication did not complete")
	}
	c.StartClients()
	c.Eng.RunFor(load)
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(settle)
}

// ---- end-to-end smoke across deployment kinds ---------------------------

// TestTrackingSmokeInBand: on the baselines, CLIENT TRACKING is served
// entirely by the host (interest table + RESP3 pushes on the data
// connection). A mixed Zipfian load across three clients must produce
// cache hits, cross-client invalidations, no errors, and a coherent cache.
func TestTrackingSmokeInBand(t *testing.T) {
	for _, kind := range []Kind{KindTCP, KindRDMA} {
		c := Build(Config{Kind: kind, Slaves: 0, Clients: 3, Seed: 41,
			KeySpace: 300, GetRatio: 0.8, Zipf: true, Tracking: true})
		runTracked(t, c, 250*sim.Millisecond, 100*sim.Millisecond)
		hits, invals, entries := requireCachesCoherent(t, kind.String(), c)
		if hits == 0 {
			t.Fatalf("%s: no tracked GET was ever served locally", kind)
		}
		if invals == 0 {
			t.Fatalf("%s: no invalidation push was ever applied", kind)
		}
		if entries == 0 {
			t.Fatalf("%s: caches empty at quiesce", kind)
		}
		if c.Master.TrackingSubscribers() != 3 {
			t.Fatalf("%s: %d in-band subscribers, want 3", kind, c.Master.TrackingSubscribers())
		}
	}
}

// TestTrackingSmokeSKVRedirect: on SKV the interest table lives on the
// SmartNIC — the host only forwards interest, and invalidation pushes are
// generated on the NIC's replication fan-out path and delivered over the
// out-of-band subscription channel. The host-side table must stay empty.
func TestTrackingSmokeSKVRedirect(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 3, Seed: 43,
		KeySpace: 300, GetRatio: 0.8, Zipf: true, Tracking: true,
		SKV: core.DefaultConfig()})
	runTracked(t, c, 250*sim.Millisecond, 100*sim.Millisecond)
	hits, invals, entries := requireCachesCoherent(t, "skv-redirect", c)
	if hits == 0 || invals == 0 || entries == 0 {
		t.Fatalf("tracking plane inert: hits=%d invals=%d entries=%d", hits, invals, entries)
	}
	if c.Master.TrackingLen() != 0 || c.Master.TrackingSubscribers() != 0 {
		t.Fatalf("redirect mode left interest on the host: keys=%d subs=%d",
			c.Master.TrackingLen(), c.Master.TrackingSubscribers())
	}
	if c.NicKV.TrackingSubscribers() != 3 {
		t.Fatalf("NIC holds %d subscribers, want 3", c.NicKV.TrackingSubscribers())
	}
	if c.NicKV.InvalidationsPushed == 0 {
		t.Fatal("NIC pushed no invalidations — pushes did not ride the fan-out path")
	}
}

// TestTrackingRedirectClientResubscribes drives the workload client's
// redirect-mode recovery: one client's subscription channel is severed
// mid-load. The client must flush its cache, subscribe afresh, serve from
// the cache again, and end coherent with the master.
func TestTrackingRedirectClientResubscribes(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 3, Seed: 45,
		KeySpace: 300, GetRatio: 0.8, Zipf: true, Tracking: true,
		SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("initial replication did not complete")
	}
	c.StartClients()
	c.Eng.RunFor(100 * sim.Millisecond)
	if got := c.NicKV.TrackingSubscribers(); got != len(c.Clients) {
		t.Fatalf("NIC holds %d subscribers under load, want %d", got, len(c.Clients))
	}
	victim := c.Clients[1]
	if len(victim.CacheEntries()) == 0 {
		t.Fatal("victim cached nothing before the cut")
	}
	before := victim.Stats()
	if !c.NicKV.SeverSubscriber(victim.Name()) {
		t.Fatalf("NIC holds no subscriber %q", victim.Name())
	}
	c.Eng.RunFor(5 * sim.Millisecond)
	if got := c.NicKV.TrackingSubscribers(); got != len(c.Clients)-1 {
		t.Fatalf("NIC holds %d subscribers after the cut, want %d", got, len(c.Clients)-1)
	}
	if st := victim.Stats(); st.Flushes <= before.Flushes {
		t.Fatalf("subscription loss did not flush the cache: flushes %d -> %d", before.Flushes, st.Flushes)
	}
	c.Eng.RunFor(45 * sim.Millisecond)
	if got := c.NicKV.TrackingSubscribers(); got != len(c.Clients) {
		t.Fatalf("NIC holds %d subscribers after re-subscription, want %d", got, len(c.Clients))
	}
	resubscribed := victim.Stats()
	c.Eng.RunFor(100 * sim.Millisecond)
	if st := victim.Stats(); st.Hits <= resubscribed.Hits || st.Invalidations <= resubscribed.Invalidations {
		t.Fatalf("cache not re-armed after re-subscription: hits %d -> %d, invalidations %d -> %d",
			resubscribed.Hits, st.Hits, resubscribed.Invalidations, st.Invalidations)
	}
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(100 * sim.Millisecond)
	if _, _, entries := requireCachesCoherent(t, "redirect-resubscribe", c); entries == 0 {
		t.Fatal("caches empty at quiesce")
	}
}

// TestTrackingRedirectLateDropAfterPartition: a client↔master partition
// makes the victim's stall watchdog retire its data connection while the
// close itself stays parked in the fabric. The victim re-subscribes at
// once; the server only sees the close at the heal and forwards a drop for
// the old subscription. That late drop must not disarm the victim's live
// subscription, and no cache may end stale.
func TestTrackingRedirectLateDropAfterPartition(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 3, Seed: 49,
		KeySpace: 300, GetRatio: 0.8, Zipf: true, Tracking: true,
		SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("initial replication did not complete")
	}
	c.StartClients()
	c.Eng.RunFor(100 * sim.Millisecond)
	victim := c.Clients[1]
	cut := c.Net.Machine(victim.Name()).Host
	f := c.Net.Faults()
	f.PartitionBoth(cut, c.MasterMachine.Host)
	c.Eng.RunFor(700 * sim.Millisecond)
	f.HealBoth(cut, c.MasterMachine.Host)
	c.Eng.RunFor(100 * sim.Millisecond)
	if got := c.NicKV.TrackingSubscribers(); got != len(c.Clients) {
		t.Fatalf("NIC holds %d subscribers after the heal, want %d", got, len(c.Clients))
	}
	healed := victim.Stats()
	if healed.Redials < 2 {
		t.Fatalf("partition never retired the victim's connection: redials=%d", healed.Redials)
	}
	c.Eng.RunFor(200 * sim.Millisecond)
	if st := victim.Stats(); st.Hits <= healed.Hits || st.Invalidations <= healed.Invalidations {
		t.Fatalf("cache not re-armed after the heal: hits %d -> %d, invalidations %d -> %d",
			healed.Hits, st.Hits, healed.Invalidations, st.Invalidations)
	}
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(100 * sim.Millisecond)
	requireCachesCoherent(t, "redirect-late-drop", c)
}

// TestTrackingSmokeNicServedReads: with NicReads=clients the tracked GETs
// are served by the ARM cores and the interest table + pushes never touch
// the host at all. Clients are read-only (the NIC rejects writes); a
// host-connected writer seeds and then overwrites keys, and the overwrite
// must invalidate every NIC-side cache through the in-band RESP3 pushes.
func TestTrackingSmokeNicServedReads(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 2, Seed: 47,
		KeySpace: 100, GetRatio: 1, Zipf: true, Tracking: true,
		NicReads: NicReadsClients, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("initial replication did not complete")
	}
	w := dialRaw(t, c, "seed-writer", c.MasterMachine.Host, core.ClientPort)
	key := func(i int) string { return fmt.Sprintf("key:%010d", i) }
	for i := 0; i < 100; i++ {
		w.conn.Send(resp.EncodeCommand("SET", key(i), fmt.Sprintf("seed%d", i)))
	}
	c.Eng.RunFor(100 * sim.Millisecond) // replicate into the NIC replica

	c.StartClients()
	c.Eng.RunFor(150 * sim.Millisecond) // caches fill from ARM-served GETs
	for i := 0; i < 20; i++ {
		w.conn.Send(resp.EncodeCommand("SET", key(i), fmt.Sprintf("new%d", i)))
	}
	c.Eng.RunFor(100 * sim.Millisecond)
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(100 * sim.Millisecond)

	hits, invals, entries := requireCachesCoherent(t, "nic-clients", c)
	if hits == 0 || entries == 0 {
		t.Fatalf("NIC-served tracking inert: hits=%d entries=%d", hits, entries)
	}
	if invals == 0 {
		t.Fatal("overwrites through the host never invalidated the NIC-side caches")
	}
	if c.NicKV.InvalidationsPushed == 0 {
		t.Fatal("NIC invalidation counter never moved")
	}
	if c.Master.TrackingLen() != 0 {
		t.Fatalf("host recorded %d tracked keys in NIC-clients mode", c.Master.TrackingLen())
	}
}

// ---- satellite: interest dropped on disconnect --------------------------

// TestTrackingInterestDroppedOnDisconnectInBand is the churn regression:
// a client that negotiates tracking, records interest and disconnects must
// leave the host's interest table empty.
func TestTrackingInterestDroppedOnDisconnectInBand(t *testing.T) {
	c := Build(Config{Kind: KindTCP, Clients: 0, Seed: 51})
	rc := dialRaw(t, c, "churn", c.MasterMachine.Host, core.ClientPort)
	rc.conn.Send(resp.EncodeCommand("client", "tracking", "on"))
	rc.conn.Send(resp.EncodeCommand("GET", "a"))
	rc.conn.Send(resp.EncodeCommand("GET", "b"))
	c.Eng.RunFor(20 * sim.Millisecond)
	if len(rc.vals) == 0 || rc.vals[0].IsError() {
		t.Fatalf("tracking handshake failed: %v", rc.vals)
	}
	if got := c.Master.TrackingLen(); got != 2 {
		t.Fatalf("interest table holds %d keys, want 2", got)
	}
	if got := c.Master.TrackingSubscribers(); got != 1 {
		t.Fatalf("%d subscribers, want 1", got)
	}
	rc.conn.Close()
	c.Eng.RunFor(20 * sim.Millisecond)
	if keys, subs := c.Master.TrackingLen(), c.Master.TrackingSubscribers(); keys != 0 || subs != 0 {
		t.Fatalf("disconnect leaked interest: keys=%d subs=%d", keys, subs)
	}
}

// TestTrackingInterestDroppedOnDisconnectRedirect covers both teardown
// paths of the offloaded plane: the data connection's close must forward
// a drop to the NIC, and the subscription channel's own close must drop
// the subscriber from the accept loop.
func TestTrackingInterestDroppedOnDisconnectRedirect(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 0, Seed: 53, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}

	// Arm the subscription channel first (the workload client does the same).
	sub := dialRaw(t, c, "churn-sub", c.MasterMachine.NIC, core.NicPort)
	sub.conn.Send(core.EncodeTrackHello("churn"))
	c.Eng.RunFor(20 * sim.Millisecond)
	if got := c.NicKV.TrackingSubscribers(); got != 1 {
		t.Fatalf("NIC holds %d subscribers after hello, want 1", got)
	}

	data := dialRaw(t, c, "churn-data", c.MasterMachine.Host, core.ClientPort)
	data.conn.Send(resp.EncodeCommand("client", "tracking", "on", "redirect", "churn"))
	data.conn.Send(resp.EncodeCommand("GET", "a"))
	data.conn.Send(resp.EncodeCommand("GET", "b"))
	c.Eng.RunFor(20 * sim.Millisecond)
	if got := c.NicKV.TrackingLen(); got != 2 {
		t.Fatalf("NIC interest table holds %d keys, want 2", got)
	}
	if got := c.Master.TrackingLen(); got != 0 {
		t.Fatalf("redirect mode recorded %d keys on the host", got)
	}

	// Path 1: the data connection dies → the server forwards a drop.
	data.conn.Close()
	c.Eng.RunFor(20 * sim.Millisecond)
	if keys, subs := c.NicKV.TrackingLen(), c.NicKV.TrackingSubscribers(); keys != 0 || subs != 0 {
		t.Fatalf("data-conn close leaked NIC interest: keys=%d subs=%d", keys, subs)
	}

	// Path 2: a fresh subscriber whose push channel itself dies.
	sub2 := dialRaw(t, c, "churn-sub2", c.MasterMachine.NIC, core.NicPort)
	sub2.conn.Send(core.EncodeTrackHello("churn2"))
	c.Eng.RunFor(20 * sim.Millisecond)
	if got := c.NicKV.TrackingSubscribers(); got != 1 {
		t.Fatalf("NIC holds %d subscribers after re-hello, want 1", got)
	}
	sub2.conn.Close()
	c.Eng.RunFor(20 * sim.Millisecond)
	if got := c.NicKV.TrackingSubscribers(); got != 0 {
		t.Fatalf("push-channel close leaked %d subscribers", got)
	}
}

// TestTrackingInterestDroppedOnDisconnectNicServed: same regression on the
// NIC-served read path, where the interest table and the data connection
// both live on the SmartNIC.
func TestTrackingInterestDroppedOnDisconnectNicServed(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 0, Seed: 57,
		NicReads: NicReadsClients, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	rc := dialRaw(t, c, "churn-nic", c.MasterMachine.NIC, core.ClientPort)
	rc.conn.Send(resp.EncodeCommand("client", "tracking", "on"))
	rc.conn.Send(resp.EncodeCommand("GET", "a"))
	rc.conn.Send(resp.EncodeCommand("GET", "b"))
	c.Eng.RunFor(20 * sim.Millisecond)
	if len(rc.vals) == 0 || rc.vals[0].IsError() {
		t.Fatalf("NIC tracking handshake failed: %v", rc.vals)
	}
	if keys, subs := c.NicKV.TrackingLen(), c.NicKV.TrackingSubscribers(); keys != 2 || subs != 1 {
		t.Fatalf("NIC tracking state keys=%d subs=%d, want 2/1", keys, subs)
	}
	rc.conn.Close()
	c.Eng.RunFor(20 * sim.Millisecond)
	if keys, subs := c.NicKV.TrackingLen(), c.NicKV.TrackingSubscribers(); keys != 0 || subs != 0 {
		t.Fatalf("NIC-served disconnect leaked interest: keys=%d subs=%d", keys, subs)
	}
}

// ---- satellite: cache/keyspace equality across layouts ------------------

// TestTrackingCacheCoherentAcrossShards: the sharded execution pipeline
// must not reorder a write's merge against its invalidation push in any
// way a client could observe — after a mixed Zipfian run at 1, 2 and 4
// host shards every surviving cache entry equals the master's value.
func TestTrackingCacheCoherentAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 2, Seed: 61,
			KeySpace: 400, GetRatio: 0.7, Zipf: true, Tracking: true,
			Params: shardParams(shards), SKV: core.DefaultConfig()})
		runTracked(t, c, 250*sim.Millisecond, 150*sim.Millisecond)
		label := fmt.Sprintf("shards=%d", shards)
		hits, invals, _ := requireCachesCoherent(t, label, c)
		if hits == 0 || invals == 0 {
			t.Fatalf("%s: tracking inert: hits=%d invals=%d", label, hits, invals)
		}
	}
}

// TestTrackingCacheCoherentMultiMaster: hash-slot deployments track
// in-band per master; MOVED/ASK redirects drop the affected key. After a
// routed mixed load, each cache entry must match the owning group's
// master.
func TestTrackingCacheCoherentMultiMaster(t *testing.T) {
	c := Build(Config{Kind: KindSKV,
		Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1},
		Clients: 2, Pipeline: 2, Seed: 63,
		KeySpace: 400, GetRatio: 0.7, Zipf: true, Tracking: true,
		SKV: core.DefaultConfig()})
	runTracked(t, c, 250*sim.Millisecond, 150*sim.Millisecond)
	hits, invals, _ := requireCachesCoherent(t, "multimaster", c)
	if hits == 0 || invals == 0 {
		t.Fatalf("multimaster tracking inert: hits=%d invals=%d", hits, invals)
	}
	var moved uint64
	for _, cl := range c.Clients {
		moved += cl.Stats().Moved
	}
	if moved == 0 {
		t.Fatal("no MOVED redirect exercised the cache-drop path")
	}
}

// ---- chaos: no stale read survives failover or resharding ---------------

// trackingDigest renders everything a tracked chaos run produced — the
// chaos trace, every metric snapshot, and each client's counters and
// sorted cache contents — for byte-identical rerun comparisons.
func trackingDigest(c *Cluster, h *Chaos) string {
	var b strings.Builder
	b.WriteString(h.TraceString())
	b.WriteString(c.SnapshotsString())
	for _, cl := range c.Clients {
		st := cl.Stats()
		fmt.Fprintf(&b, "%s sent=%d done=%d err=%d hits=%d miss=%d inv=%d flush=%d\n",
			cl.Name(), st.Sent, st.Done, st.ErrReplies, st.Hits, st.Misses,
			st.Invalidations, st.Flushes)
		ents := cl.CacheEntries()
		keys := make([]string, 0, len(ents))
		for k := range ents {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s=%s\n", k, ents[k])
		}
	}
	return b.String()
}

// trackedScenario arms tracking and a read-heavy load on a canned chaos
// scenario.
func trackedScenario(s Scenario) Scenario {
	s.Tracking = true
	s.GetRatio = 0.6
	s.Clients = 2
	return s
}

// TestTrackingChaosNoStaleReads re-runs every chaos scenario with tracked
// redirect-mode clients: after convergence, no client may hold a cache
// entry differing from what the surviving master serves — across master
// crash/restart, slave churn, partitions and lossy links.
func TestTrackingChaosNoStaleReads(t *testing.T) {
	var invals uint64
	for _, s := range ChaosScenarios() {
		s := trackedScenario(s)
		t.Run(s.Name, func(t *testing.T) {
			c, h, err := RunScenario(s)
			if err != nil {
				t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
			}
			_, inv, _ := requireCachesCoherent(t, s.Name, c)
			invals += inv
		})
	}
	if invals == 0 {
		t.Error("no chaos scenario ever applied an invalidation — the oracle tested nothing")
	}
}

// TestTrackingChaosDeterministic pins the tracked failover scenario's
// whole observable state — trace, metric snapshots, client counters and
// cache contents — byte-identical across reruns.
func TestTrackingChaosDeterministic(t *testing.T) {
	runOnce := func() string {
		s := trackedScenario(ChaosScenarios()[0]) // master-restart-split-brain
		c, h, err := RunScenario(s)
		if err != nil {
			t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
		}
		return trackingDigest(c, h)
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("tracked chaos run not deterministic:\n--- run1:\n%s--- run2:\n%s", a, b)
	}
}

// TestTrackingReshardNoStaleReads runs the live slot-migration scenario
// with tracked slot clients: the ledger oracle (acknowledged writes equal
// final-owner values) must hold, no cache entry may outlive the move with
// a stale value, and the whole run must be deterministic.
func TestTrackingReshardNoStaleReads(t *testing.T) {
	runOnce := func() (*ReshardResult, string) {
		r, err := RunReshardUnderLoadTracked(7)
		if err != nil {
			if r != nil {
				t.Logf("trace:\n%s", r.H.TraceString())
			}
			t.Fatal(err)
		}
		return r, trackingDigest(r.C, r.H)
	}
	r, digest := runOnce()
	hits, _, _ := requireCachesCoherent(t, "reshard", r.C)
	if hits == 0 {
		t.Fatal("no tracked GET was served locally during the reshard")
	}
	var moved, flushes uint64
	for _, cl := range r.C.Clients {
		st := cl.Stats()
		moved += st.Moved + st.Asked
		flushes += st.Flushes
	}
	if moved == 0 {
		t.Fatal("no redirect ever reached a tracked client during the move")
	}
	if flushes == 0 {
		t.Fatal("no topology change ever flushed a cache — the migration was invisible to tracking")
	}
	if _, digest2 := runOnce(); digest != digest2 {
		t.Fatal("tracked reshard run not deterministic across reruns")
	}
}
