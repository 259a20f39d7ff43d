package bench

import (
	"fmt"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/sim"
)

// AblateSlaves sweeps the slave count: the mechanism behind Fig 11 is that
// the RDMA-Redis master's per-write cost grows linearly with the slave
// count (one output-buffer feed + one work request each) while SKV's is
// constant (one replication request to the NIC).
func AblateSlaves() *Experiment {
	e := &Experiment{
		ID:     "ablate-slaves",
		Title:  "SET throughput vs slave count (8 clients): offload win grows with fan-out",
		Header: []string{"slaves", "rdma-redis kops/s", "skv kops/s", "gain", "skv NIC util"},
	}
	for _, slaves := range []int{1, 2, 3, 4, 6, 8} {
		rr := runOnce(cluster.Config{Kind: cluster.KindRDMA, Slaves: slaves, Clients: 8, Seed: 51})
		rs := runOnce(cluster.Config{Kind: cluster.KindSKV, Slaves: slaves, Clients: 8, Seed: 51, SKV: core.DefaultConfig()})
		e.Rows = append(e.Rows, []string{
			fmt.Sprint(slaves), kops(rr.Throughput), kops(rs.Throughput),
			fmt.Sprintf("%+.1f%%", (rs.Throughput/rr.Throughput-1)*100),
			fmt.Sprintf("%.0f%%", rs.NicUtil*100),
		})
		e.metric(fmt.Sprintf("gain_pct_%dslaves", slaves), (rs.Throughput/rr.Throughput-1)*100)
	}
	e.Notes = append(e.Notes,
		"challenge 2 (§II-C): past the point where the single ARM core saturates, SKV's client throughput keeps its lead but replication lags — see ablate-threads")
	return e
}

// AblateNICSpeed sweeps the ARM-core speed: why "simply putting everything
// on the SmartNIC" fails, and how weak the NIC may get before the offload
// stops keeping up.
func AblateNICSpeed() *Experiment {
	e := &Experiment{
		ID:     "ablate-nicspeed",
		Title:  "SKV sensitivity to SmartNIC core speed (SET, 8 clients, 3 slaves)",
		Header: []string{"NIC core speed", "skv kops/s", "NIC util", "repl lag bytes"},
	}
	for _, speed := range []float64{0.2, 0.35, 0.6, 0.8, 1.0} {
		p := model.Default()
		p.NICCoreSpeed = speed
		c := cluster.Build(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: 52, Params: &p, SKV: core.DefaultConfig()})
		if !c.AwaitReplication(5 * sim.Second) {
			panic("ablate-nicspeed: sync failed")
		}
		r := c.Measure(warmup, measure)
		lag := replicationLag(c)
		e.Rows = append(e.Rows, []string{
			fmt.Sprintf("%.2f×host", speed), kops(r.Throughput),
			fmt.Sprintf("%.0f%%", r.NicUtil*100), fmt.Sprint(lag),
		})
		e.metric(fmt.Sprintf("lag_bytes_speed%.2f", speed), float64(lag))
	}
	e.Notes = append(e.Notes,
		"client-visible throughput is insensitive (replication is asynchronous); a too-slow NIC shows up as replication lag")
	return e
}

// replicationLag reports the master-offset minus the slowest slave offset
// at the end of a run.
func replicationLag(c *cluster.Cluster) int64 {
	minOff := int64(-1)
	for _, a := range c.SlaveAgents {
		if minOff < 0 || a.Offset() < minOff {
			minOff = a.Offset()
		}
	}
	if minOff < 0 {
		return 0
	}
	lag := c.Master.ReplOffset() - minOff
	if lag < 0 {
		lag = 0
	}
	return lag
}

// AblateThreads sweeps thread-num (§III-C): multi-threaded replication on
// the NIC accelerates the background fan-out (lower lag) but cannot improve
// client latency or throughput — the paper's stated reason for defaulting
// to single-threaded mode.
func AblateThreads() *Experiment {
	e := &Experiment{
		ID:     "ablate-threads",
		Title:  "Nic-KV thread-num (SET, 8 clients, 8 slaves)",
		Header: []string{"thread-num", "client kops/s", "client p99 µs", "repl lag bytes"},
	}
	for _, threads := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.ThreadNum = threads
		c := cluster.Build(cluster.Config{Kind: cluster.KindSKV, Slaves: 8, Clients: 8, Seed: 53, SKV: cfg})
		if !c.AwaitReplication(5 * sim.Second) {
			panic("ablate-threads: sync failed")
		}
		r := c.Measure(warmup, measure)
		e.Rows = append(e.Rows, []string{
			fmt.Sprint(threads), kops(r.Throughput), f1(r.P99.Micros()), fmt.Sprint(replicationLag(c)),
		})
		e.metric(fmt.Sprintf("lag_bytes_%dthreads", threads), float64(replicationLag(c)))
		e.metric(fmt.Sprintf("client_kops_%dthreads", threads), r.Throughput/1000)
	}
	e.Notes = append(e.Notes,
		"paper §III-C: \"the speedup of replication cannot improve the latency and throughput of the execution of commands on the master node\"")
	return e
}

// registry lists every experiment in paper order; All, ByID and IDs all
// derive from it.
var registry = []struct {
	id  string
	run func() *Experiment
}{
	{"fig3", Fig3}, {"fig7", Fig7}, {"fig10a", Fig10a}, {"fig10b", Fig10b},
	{"fig11", Fig11}, {"fig12", Fig12}, {"fig13", Fig13}, {"fig14", Fig14},
	{"ablate-slaves", AblateSlaves}, {"ablate-nicspeed", AblateNICSpeed},
	{"ablate-threads", AblateThreads}, {"ablate-niccache", AblateNICCache},
	{"ablate-cpu", AblateCPU}, {"ext-pipeline", ExtPipeline},
	{"ext-batch", ExtBatch}, {"ext-failover", ExtFailover},
	{"ext-shards", ExtShards}, {"ext-cluster", ExtCluster},
	{"ext-reshard", ExtReshard}, {"ext-quorum", ExtQuorum},
	{"ext-tracking", ExtTracking},
}

// All runs every experiment in paper order.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, r := range registry {
		out = append(out, r.run())
	}
	return out
}

// ByID runs a single experiment by identifier, or nil if unknown.
func ByID(id string) *Experiment {
	for _, r := range registry {
		if r.id == id {
			return r.run()
		}
	}
	return nil
}

// IDs lists the available experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, r := range registry {
		ids = append(ids, r.id)
	}
	return ids
}

// AblateCPU measures the design goal "low CPU consumption" directly: host
// CPU microseconds consumed per client operation on the master, for each
// system, with 3 slaves under SET load. SKV's saving is precisely the
// per-slave feed + work-request posting that moved to the SmartNIC.
func AblateCPU() *Experiment {
	e := &Experiment{
		ID:     "ablate-cpu",
		Title:  "Master host CPU per operation (SET, 8 clients, 3 slaves)",
		Header: []string{"system", "tput kops/s", "master µs/op", "NIC µs/op"},
		Notes: []string{
			"design goal 2 (§III-A): \"We hope to use single thread on host to reduce the number of occupied cores while maintaining high performance\"",
		},
	}
	for _, kind := range []cluster.Kind{cluster.KindRDMA, cluster.KindSKV} {
		cfg := cluster.Config{Kind: kind, Slaves: 3, Clients: 8, Seed: 62}
		if kind == cluster.KindSKV {
			cfg.SKV = core.DefaultConfig()
		}
		c := cluster.Build(cfg)
		if !c.AwaitReplication(5 * sim.Second) {
			panic("ablate-cpu: sync failed")
		}
		busyBefore := c.Master.Proc().Core.BusyTime()
		var nicBefore sim.Duration
		if c.NicKV != nil {
			nicBefore = c.NicKV.Proc().Core.BusyTime()
		}
		opsBefore := c.Master.CommandsProcessed
		r := c.Measure(warmup, measure)
		ops := float64(c.Master.CommandsProcessed - opsBefore)
		hostPerOp := float64(c.Master.Proc().Core.BusyTime()-busyBefore) / ops / 1000
		nicPerOp := 0.0
		if c.NicKV != nil {
			nicPerOp = float64(c.NicKV.Proc().Core.BusyTime()-nicBefore) / ops / 1000
		}
		e.Rows = append(e.Rows, []string{
			kind.String(), kops(r.Throughput),
			fmt.Sprintf("%.2f", hostPerOp), fmt.Sprintf("%.2f", nicPerOp),
		})
		e.metric("host_us_per_op_"+kind.String(), hostPerOp)
	}
	return e
}
