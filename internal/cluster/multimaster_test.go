package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"skv/internal/core"
	"skv/internal/sim"
	"skv/internal/slots"
)

// TestMultiMasterValidate pins the Config surface: every invalid
// combination of the multi-master knobs is rejected with a clear error,
// and the valid shapes build.
func TestMultiMasterValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // "" = valid
	}{
		{"legacy", Config{Kind: KindSKV, Slaves: 2}, ""},
		{"masters-1-is-legacy", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 1}, Slaves: 2}, ""},
		{"multi-ok", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}}, ""},
		{"multi-custom-ranges", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1,
			SlotRanges: []slots.Range{{Start: 0, End: 99, Group: 1}, {Start: 100, End: slots.NumSlots - 1, Group: 0}}}}, ""},
		{"multi-zipf-skew", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}, Zipf: true, ZipfS: 1.5}, ""},

		{"multi-needs-skv", Config{Kind: KindRDMA, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}}, "requires Kind=KindSKV"},
		{"multi-rejects-legacy-slaves", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}, Slaves: 3}, "conflicts with the legacy Slaves field"},
		{"multi-needs-slaves", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2}}, "SlavesPerMaster >= 1"},
		{"multi-rejects-nic-clients", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}, NicReads: NicReadsClients}, "NicReads=clients is not supported"},
		{"multi-bad-ranges", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1,
			SlotRanges: []slots.Range{{Start: 0, End: 100, Group: 0}}}}, "bad SlotRanges"},
		{"legacy-rejects-spm", Config{Kind: KindSKV, Slaves: 2, Cluster: ClusterOpts{SlavesPerMaster: 1}}, "only meaningful with Masters>1"},
		{"legacy-rejects-ranges", Config{Kind: KindSKV, Slaves: 2,
			Cluster: ClusterOpts{SlotRanges: []slots.Range{{Start: 0, End: slots.NumSlots - 1, Group: 0}}}}, "only meaningful with Masters>1"},
		{"zipfs-needs-zipf", Config{Kind: KindSKV, Slaves: 2, ZipfS: 1.5}, "requires Zipf=true"},
		{"zipfs-must-exceed-one", Config{Kind: KindSKV, Slaves: 2, Zipf: true, ZipfS: 0.9}, "must be > 1"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected an error containing %q, got nil", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// requireOneGroup asserts c is a single-group deployment: one group, no
// slot plane, and the cluster-level fields aliasing that group.
func requireOneGroup(t *testing.T, label string, c *Cluster) *Group {
	t.Helper()
	if len(c.Groups) != 1 || c.SlotMap != nil {
		t.Fatalf("%s: built %d groups (slot map %v), want one group and no slot map", label, len(c.Groups), c.SlotMap != nil)
	}
	g := c.Groups[0]
	if g.Index != 0 || g.Master != c.Master || g.HostKV != c.HostKV || g.NicKV != c.NicKV ||
		g.MasterMachine != c.MasterMachine || !slices.Equal(g.Slaves, c.Slaves) ||
		!slices.Equal(g.SlaveAgents, c.SlaveAgents) || !slices.Equal(g.SlaveMachines, c.SlaveMachines) {
		t.Fatalf("%s: group 0 does not match the cluster aliases", label)
	}
	return g
}

// TestMastersOneIdenticalToLegacy pins the one-group case: Masters=0 and
// Masters=1 both build exactly one group with no slot plane, and render
// byte-identical metric snapshots and an identical keyspace under the same
// scripted workload.
func TestMastersOneIdenticalToLegacy(t *testing.T) {
	t.Parallel()
	runOnce := func(masters int) (string, map[string]string) {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 31,
			Cluster: ClusterOpts{Masters: masters}, SKV: core.DefaultConfig()})
		g := requireOneGroup(t, fmt.Sprintf("masters=%d", masters), c)
		if g.NicKV == nil || g.HostKV == nil || len(g.SlaveAgents) != 2 {
			t.Fatalf("masters=%d: SKV group lacks its Nic-KV, Host-KV or slave agents", masters)
		}
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("masters=%d: sync failed", masters)
		}
		randomWriter(t, c, 77, 2000)
		return c.SnapshotsString(), fingerprint(c.Master.Store())
	}
	snap0, fp0 := runOnce(0)
	snap1, fp1 := runOnce(1)
	if snap0 != snap1 {
		t.Fatal("Masters=0 and Masters=1 rendered different metric snapshots — the legacy topology is not preserved")
	}
	if len(fp0) == 0 || len(fp0) != len(fp1) {
		t.Fatalf("keyspace mismatch: %d vs %d keys", len(fp0), len(fp1))
	}
	for k, v := range fp0 {
		if fp1[k] != v {
			t.Fatalf("keyspace divergence at %s: %q vs %q", k, v, fp1[k])
		}
	}
}

// TestBaselineBuildsOneGroup pins the baseline build: an RDMA-Redis
// deployment is one group with no SmartNIC offload, whose slaves attach to
// the master host by SLAVEOF and reach steady-state replication.
func TestBaselineBuildsOneGroup(t *testing.T) {
	t.Parallel()
	c := Build(Config{Kind: KindRDMA, Slaves: 2, Seed: 31})
	g := requireOneGroup(t, "rdma", c)
	if g.NicKV != nil || g.HostKV != nil || len(g.SlaveAgents) != 0 {
		t.Fatal("baseline group carries SKV offload state")
	}
	if len(g.Slaves) != 2 {
		t.Fatalf("baseline group has %d slaves, want 2", len(g.Slaves))
	}
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("baseline slaves never synced by SLAVEOF")
	}
	for i, s := range g.Slaves {
		if !s.SyncedWithMaster() {
			t.Fatalf("slave%d is not synced with the master", i)
		}
	}
	randomWriter(t, c, 77, 500)
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestMastersOneChaosTraceIdentical extends the off-state pin to the chaos
// harness: the hardest scenario (master restart after failover) must
// produce byte-identical failure traces with Masters unset and Masters=1.
func TestMastersOneChaosTraceIdentical(t *testing.T) {
	t.Parallel()
	runOnce := func(masters int) (string, string) {
		s := ChaosScenarios()[0] // master-restart-split-brain
		s.Cluster.Masters = masters
		c, h, err := RunScenario(s)
		if err != nil {
			t.Fatalf("masters=%d: %v", masters, err)
		}
		return h.TraceString(), c.SnapshotsString()
	}
	trace0, snap0 := runOnce(0)
	trace1, snap1 := runOnce(1)
	if trace0 != trace1 {
		t.Fatalf("chaos traces diverged between Masters=0 and Masters=1:\n--- 0:\n%s--- 1:\n%s", trace0, trace1)
	}
	if snap0 != snap1 {
		t.Fatal("chaos metric snapshots diverged between Masters=0 and Masters=1")
	}
}

// TestMultiMasterKeyspacePartitioned drives slot-aware clients against a
// 2-group deployment and checks the routing contract end to end: work
// lands on both groups, bootstrap MOVED redirects repair the client maps,
// no error replies leak through, every key lives on the group that owns
// its slot, and each group's slaves replicate their master exactly.
func TestMultiMasterKeyspacePartitioned(t *testing.T) {
	t.Parallel()
	c := Build(Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1},
		Clients: 4, Pipeline: 4, Seed: 31, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	res := c.Measure(20*sim.Millisecond, 150*sim.Millisecond)
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(500 * sim.Millisecond)

	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.ErrReplies != 0 {
		t.Fatalf("%d error replies leaked to clients", res.ErrReplies)
	}
	if res.Moved == 0 {
		t.Fatal("no MOVED redirects: the stale client bootstrap never exercised the redirect path")
	}
	if len(res.GroupOps) != 2 || res.GroupOps[0] == 0 || res.GroupOps[1] == 0 {
		t.Fatalf("load did not reach both groups: %v", res.GroupOps)
	}
	var refreshes uint64
	for _, cl := range c.Clients {
		refreshes += cl.Stats().MapRefreshes
	}
	if refreshes == 0 {
		t.Fatal("no client ever refreshed its slot map")
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for gi, g := range c.Groups {
		fp := fingerprint(g.Master.Store())
		total += len(fp)
		for k := range fp {
			key := strings.TrimPrefix(k, "0/")
			if got := c.SlotMap.Owner(slots.Slot([]byte(key))); got != gi {
				t.Fatalf("key %q lives on g%d but its slot belongs to g%d", key, gi, got)
			}
		}
		for si, s := range g.Slaves {
			got := fingerprint(s.Store())
			if len(got) != len(fp) {
				t.Fatalf("g%d slave%d holds %d keys, master holds %d", gi, si, len(got), len(fp))
			}
			for k, v := range fp {
				if got[k] != v {
					t.Fatalf("g%d slave%d diverged at %s", gi, si, k)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no keys written anywhere")
	}
}

// TestMultiMasterThroughputScales: two groups with the same per-master
// tuning must clear well over 1.5x the aggregate SET throughput of one
// (the ext-cluster bench pins the full 1/2/4 sweep). The client count is
// the same in both runs — the slot clients' per-group windows keep the
// offered load per master constant as groups are added.
func TestMultiMasterThroughputScales(t *testing.T) {
	t.Parallel()
	run := func(masters int) Result {
		cfg := Config{Kind: KindSKV, Clients: 8, Pipeline: 8,
			Seed: 67, SKV: core.DefaultConfig()}
		if masters == 1 {
			cfg.Slaves = 1
		} else {
			cfg.Cluster = ClusterOpts{Masters: masters, SlavesPerMaster: 1}
		}
		c := Build(cfg)
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("masters=%d: sync failed", masters)
		}
		return c.Measure(20*sim.Millisecond, 150*sim.Millisecond)
	}
	res1 := run(1)
	res2 := run(2)
	if res2.ErrReplies != 0 {
		t.Fatalf("masters=2: %d error replies", res2.ErrReplies)
	}
	scale := res2.Throughput / res1.Throughput
	if scale < 1.5 {
		t.Fatalf("2 masters scaled only %.2fx over 1 (%.0f vs %.0f ops/s)",
			scale, res2.Throughput, res1.Throughput)
	}
}

// TestPerSlotFailoverIsolation is the blast-radius contract: crash one
// group's master under load and the surviving group must show zero errors
// and no empty availability buckets, while the victim group blips and then
// recovers on the promoted slave. The whole scenario must also be
// deterministic: a second run reproduces the trace, the timeline, and the
// metric snapshots byte-for-byte.
func TestPerSlotFailoverIsolation(t *testing.T) {
	t.Parallel()
	runOnce := func() *PerSlotFailoverResult {
		r, err := RunPerSlotFailover(7)
		if err != nil {
			if r != nil {
				t.Logf("timeline:\n%s", r.Avail.String())
				t.Logf("trace:\n%s", r.H.TraceString())
			}
			t.Fatal(err)
		}
		return r
	}
	r := runOnce()
	survivor := 0
	for b, n := range r.Avail.Done[survivor] {
		if n == 0 {
			t.Errorf("survivor g%d served nothing in bucket %d — failover bled across groups\n%s",
				survivor, b, r.Avail.String())
		}
	}
	for b, n := range r.Avail.Errs[survivor] {
		if n != 0 {
			t.Errorf("survivor g%d returned %d errors in bucket %d\n%s", survivor, n, b, r.Avail.String())
		}
	}
	empty, recovered := r.Avail.Outage(r.Victim)
	if empty == 0 {
		t.Errorf("victim g%d shows no outage at all — the crash did nothing\n%s", r.Victim, r.Avail.String())
	}
	if !recovered {
		t.Errorf("victim g%d never served again after the outage\n%s", r.Victim, r.Avail.String())
	}
	if r.Promoted < 0 {
		t.Error("no slave was promoted in the victim group")
	}

	r2 := runOnce()
	if r.H.TraceString() != r2.H.TraceString() {
		t.Error("chaos traces differ across identical per-slot failover runs")
	}
	if r.Avail.String() != r2.Avail.String() {
		t.Error("availability timelines differ across identical per-slot failover runs")
	}
	if r.C.SnapshotsString() != r2.C.SnapshotsString() {
		t.Error("metric snapshots differ across identical per-slot failover runs")
	}
}
