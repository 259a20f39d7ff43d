// Package cluster assembles full simulated deployments of the three
// systems the paper evaluates:
//
//   - KindTCP: original Redis — the server over the kernel TCP model.
//   - KindRDMA: RDMA-Redis — the same server over the verbs transport,
//     master feeding each slave itself (the paper's baseline).
//   - KindSKV: SKV — Host-KV + Nic-KV with replication and failure
//     detection offloaded to the SmartNIC.
//
// A cluster is one master (with a SmartNIC for SKV), N slave machines, and
// M closed-loop client machines, all on a 100Gb fabric, plus the measuring
// equipment (latency histograms, throughput series).
package cluster

import (
	"errors"
	"fmt"
	"strings"

	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
	"skv/internal/tcpsim"
	"skv/internal/transport"
	"skv/internal/workload"
)

// Kind selects the system under test.
type Kind int

// Systems under test.
const (
	// KindTCP is original Redis over the kernel TCP stack.
	KindTCP Kind = iota
	// KindRDMA is RDMA-Redis: verbs transport, host-driven replication.
	KindRDMA
	// KindSKV is the SmartNIC-offloaded system.
	KindSKV
)

func (k Kind) String() string {
	switch k {
	case KindTCP:
		return "redis"
	case KindRDMA:
		return "rdma-redis"
	case KindSKV:
		return "skv"
	}
	return "?"
}

// Config describes one deployment.
type Config struct {
	Kind    Kind
	Slaves  int
	Clients int
	// Params: nil uses model.Default().
	Params *model.Params
	Seed   int64

	// Workload shape.
	KeySpace  int     // default 10000
	ValueSize int     // default 64
	GetRatio  float64 // fraction of GETs; 0 = pure SET (the paper's default)
	Zipf      bool
	// ZipfS is the Zipfian skew exponent (requires Zipf; must be > 1).
	// 0 uses workload.DefaultZipfS, the evaluation's historical value.
	ZipfS float64
	// Pipeline keeps N requests in flight per client (redis-benchmark -P;
	// default 1 = the paper's closed loop).
	Pipeline int

	// Cluster groups the horizontal-scale knobs (multi-master hash-slot
	// deployments). The zero value builds the legacy single-master topology.
	Cluster ClusterOpts

	// SKV-specific knobs. SKV.ServeReadsFromNIC is derived from NicReads by
	// Build — setting it directly is a configuration error.
	SKV core.Config

	// NicReads is the one authoritative NIC-read-path setting (the design
	// §IV-A ablation). Build derives core.Config.ServeReadsFromNIC from it
	// and rejects inconsistent combinations.
	NicReads NicReadMode

	// Consistency groups the write-acknowledgment knobs. The zero value is
	// the legacy async fire-and-forget default.
	Consistency ConsistencyOpts

	// Tracking enables CLIENT TRACKING on every workload client: clients
	// cache GET results locally and the deployment pushes invalidations on
	// writes (from the NIC fan-out path on SKV, from the merge stage on the
	// baselines). CacheSize bounds each client's cache in entries; 0 uses
	// the workload default.
	Tracking  bool
	CacheSize int

	// DisableCron switches off serverCron (microbenchmarks only).
	DisableCron bool
}

// ClusterOpts groups Config's horizontal-scale knobs.
type ClusterOpts struct {
	// Masters scales the deployment out into a hash-slot cluster of that
	// many replication groups, each a full SKV unit (master host + SmartNIC
	// + its own slaves) owning a contiguous share of the 16384 slots.
	// 0 or 1 builds the legacy single-master deployment bit-for-bit.
	Masters int
	// SlavesPerMaster is each group's slave count when Masters > 1 (the
	// multi-master replacement for Slaves, which then must stay 0).
	SlavesPerMaster int
	// SlotRanges overrides the even slot split when Masters > 1; nil
	// assigns slots.EvenSplit(Masters). Ranges must cover all 16384 slots
	// exactly once with group indices in [0, Masters).
	SlotRanges []slots.Range
}

// ConsistencyOpts groups Config's write-acknowledgment knobs.
type ConsistencyOpts struct {
	// Level is the deployment's default write acknowledgment level. Async —
	// the zero value — is the legacy fire-and-forget default: the master
	// replies as soon as the write executes. Quorum withholds each write's
	// reply until Quorum slaves have replicated it; All waits for every
	// attached slave. On SKV the NIC enforces the quorum (the host CPU never
	// sees the wait); baselines park the reply on the master's consistency
	// tracker like WAIT. Per-command overrides ride SKV.CONSISTENCY. Build
	// derives core.Config.WriteConsistency from this field — setting
	// SKV.WriteConsistency directly is a configuration error.
	Level consistency.Level
	// Quorum is the slave-ack count a quorum write needs (only meaningful
	// with Level=Quorum; 0 defaults to 1).
	Quorum int
}

// NicReadMode selects how the cluster exercises the NIC read path.
type NicReadMode int

const (
	// NicReadsOff (the default) is the paper's design: all reads served by
	// the host, no shadow replica on the SmartNIC.
	NicReadsOff NicReadMode = iota
	// NicReadsServe enables the Nic-KV shadow replica and its client
	// listener, but the workload clients still target the master host —
	// used to compare the replica's keyspace against the master's.
	NicReadsServe
	// NicReadsClients additionally points the workload clients at the
	// SmartNIC endpoint, so reads are served by the ARM cores.
	NicReadsClients
)

func (m NicReadMode) String() string {
	switch m {
	case NicReadsOff:
		return "off"
	case NicReadsServe:
		return "serve"
	case NicReadsClients:
		return "clients"
	}
	return "?"
}

// Typed consistency-configuration errors, matchable with errors.Is: tooling
// that sweeps configurations (benches, chaos harnesses) can tell "this
// combination is meaningless" apart from other validation failures.
var (
	// ErrQuorumTooLarge: WriteQuorum asks for more slave acks than the
	// topology has slaves — no write could ever be acknowledged.
	ErrQuorumTooLarge = errors.New("write quorum exceeds the deployment's slave count")
	// ErrQuorumNoSlaves: quorum/all consistency on a slave-less (legacy
	// single-node) topology — there is nobody to ack.
	ErrQuorumNoSlaves = errors.New("quorum/all write consistency requires at least one slave")
	// ErrQuorumWithoutLevel: WriteQuorum set while the consistency level
	// isn't quorum (async never parks; all derives its need from the
	// replica count).
	ErrQuorumWithoutLevel = errors.New("WriteQuorum is only meaningful with WriteConsistency=quorum")
)

// Validate reports configuration errors Build would otherwise bake into a
// half-configured cluster.
func (cfg Config) Validate() error {
	if cfg.NicReads != NicReadsOff && cfg.Kind != KindSKV {
		return fmt.Errorf("cluster: NicReads=%s requires Kind=KindSKV (got %s): only the SKV deployment has a SmartNIC to serve reads from", cfg.NicReads, cfg.Kind)
	}
	if cfg.SKV.ServeReadsFromNIC && cfg.NicReads == NicReadsOff {
		return fmt.Errorf("cluster: SKV.ServeReadsFromNIC is derived from Config.NicReads; set NicReads=NicReadsServe or NicReadsClients instead")
	}
	if cfg.ZipfS != 0 {
		if !cfg.Zipf {
			return fmt.Errorf("cluster: ZipfS=%v requires Zipf=true (the skew exponent only shapes the Zipfian distribution)", cfg.ZipfS)
		}
		if cfg.ZipfS <= 1 {
			return fmt.Errorf("cluster: ZipfS=%v is invalid; the Zipfian exponent must be > 1", cfg.ZipfS)
		}
	}
	if cfg.Cluster.Masters > 1 {
		if cfg.Kind != KindSKV {
			return fmt.Errorf("cluster: Masters=%d requires Kind=KindSKV (got %s): only SKV groups carry the SmartNIC failover plane the slot map repairs through", cfg.Cluster.Masters, cfg.Kind)
		}
		if cfg.Slaves != 0 {
			return fmt.Errorf("cluster: Masters=%d conflicts with the legacy Slaves field (got %d); size groups with SlavesPerMaster instead", cfg.Cluster.Masters, cfg.Slaves)
		}
		if cfg.Cluster.SlavesPerMaster < 1 {
			return fmt.Errorf("cluster: Masters=%d requires SlavesPerMaster >= 1 (got %d): a group without slaves has no failover target", cfg.Cluster.Masters, cfg.Cluster.SlavesPerMaster)
		}
		if cfg.NicReads == NicReadsClients {
			return fmt.Errorf("cluster: NicReads=clients is not supported with Masters>1; slot-aware clients route to group hosts")
		}
		if cfg.Cluster.SlotRanges != nil {
			if err := slots.ValidateRanges(cfg.Cluster.SlotRanges, cfg.Cluster.Masters); err != nil {
				return fmt.Errorf("cluster: bad SlotRanges: %w", err)
			}
		}
	} else {
		if cfg.Cluster.SlavesPerMaster != 0 {
			return fmt.Errorf("cluster: SlavesPerMaster=%d is only meaningful with Masters>1; use Slaves for the single-master deployment", cfg.Cluster.SlavesPerMaster)
		}
		if cfg.Cluster.SlotRanges != nil {
			return fmt.Errorf("cluster: SlotRanges is only meaningful with Masters>1")
		}
	}
	if cfg.SKV.WriteConsistency != consistency.Async {
		return fmt.Errorf("cluster: SKV.WriteConsistency is derived from Config.Consistency.Level; set the cluster-level field instead")
	}
	replicas := cfg.Slaves
	if cfg.Cluster.Masters > 1 {
		replicas = cfg.Cluster.SlavesPerMaster
	}
	if cfg.Consistency.Level != consistency.Async && replicas == 0 {
		return fmt.Errorf("cluster: WriteConsistency=%s on a topology with no slaves: %w", cfg.Consistency.Level, ErrQuorumNoSlaves)
	}
	if cfg.Consistency.Quorum < 0 {
		return fmt.Errorf("cluster: WriteQuorum=%d is invalid; the quorum must be >= 1", cfg.Consistency.Quorum)
	}
	if cfg.Consistency.Quorum != 0 && cfg.Consistency.Level != consistency.Quorum {
		return fmt.Errorf("cluster: WriteQuorum=%d with WriteConsistency=%s: %w", cfg.Consistency.Quorum, cfg.Consistency.Level, ErrQuorumWithoutLevel)
	}
	if cfg.Consistency.Level == consistency.Quorum && cfg.Consistency.Quorum > replicas {
		return fmt.Errorf("cluster: WriteQuorum=%d but the topology has %d slaves per master: %w", cfg.Consistency.Quorum, replicas, ErrQuorumTooLarge)
	}
	if cfg.CacheSize < 0 {
		return fmt.Errorf("cluster: CacheSize=%d is invalid; the client cache bound must be >= 0", cfg.CacheSize)
	}
	if cfg.CacheSize != 0 && !cfg.Tracking {
		return fmt.Errorf("cluster: CacheSize=%d is only meaningful with Tracking=true (the cache serves tracked GETs)", cfg.CacheSize)
	}
	return nil
}

// zipfS resolves the configured skew exponent.
func (cfg Config) zipfS() float64 {
	if cfg.ZipfS != 0 {
		return cfg.ZipfS
	}
	return workload.DefaultZipfS
}

// Group is one replication group of a multi-master deployment: a complete
// SKV unit (master host + SmartNIC offload + slaves) owning a share of the
// hash-slot space.
type Group struct {
	Index int

	Master      *server.Server
	Slaves      []*server.Server
	SlaveAgents []*core.SlaveAgent
	HostKV      *core.HostKV
	NicKV       *core.NicKV

	MasterMachine *fabric.Machine
	SlaveMachines []*fabric.Machine
}

// Cluster is a built deployment.
type Cluster struct {
	Cfg    Config
	Eng    *sim.Engine
	Net    *fabric.Network
	Params *model.Params

	Master      *server.Server
	Slaves      []*server.Server
	SlaveAgents []*core.SlaveAgent // SKV only
	HostKV      *core.HostKV       // SKV only
	NicKV       *core.NicKV        // SKV only
	// Clients is the workload: slot-aware closed-loop clients, routing by
	// a one-group map on single-master deployments and by SlotMap when
	// Masters > 1.
	Clients []workload.KV

	MasterMachine *fabric.Machine
	SlaveMachines []*fabric.Machine

	// Multi-master state (Masters > 1). Groups holds every replication
	// group; the legacy fields above then alias group 0 (Master, HostKV,
	// NicKV, MasterMachine) or the concatenation across groups (Slaves,
	// SlaveAgents, SlaveMachines), so group-agnostic helpers keep working.
	// SlotMap is the deployment's authoritative hash-slot table, mutated by
	// per-group failover.
	Groups  []*Group
	SlotMap *slots.Map

	// epByName resolves slot-map addresses (endpoint names) for the
	// slot-aware clients.
	epByName map[string]*fabric.Endpoint

	clientsStarted bool
}

// Build constructs the deployment. Nothing runs until the engine does.
// Build panics on an invalid Config (see Config.Validate) — a half-built
// cluster would silently measure the wrong system.
func Build(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.SKV.ServeReadsFromNIC = cfg.NicReads != NicReadsOff
	cfg.SKV.WriteConsistency = cfg.Consistency.Level
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.KeySpace <= 0 {
		cfg.KeySpace = 10_000
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 64
	}
	p := cfg.Params
	if p == nil {
		def := model.Default()
		p = &def
	}
	eng := sim.New(cfg.Seed + 1)
	net := fabric.New(eng, p)
	net.SetMetrics(metrics.NewRegistry("fabric", eng.Now))
	c := &Cluster{Cfg: cfg, Eng: eng, Net: net, Params: p}

	makeStack := func(ep *fabric.Endpoint, proc *sim.Proc) transport.Stack {
		if cfg.Kind == KindTCP {
			return tcpsim.New(net, ep, proc)
		}
		return rconn.New(net, ep, proc)
	}
	serverWakeup := p.CompChannelWake
	if cfg.Kind == KindTCP {
		serverWakeup = p.TCPWakeup
	}

	newServer := func(name string, m *fabric.Machine, seed int64, route *server.ClusterRouting) (*server.Server, transport.Stack) {
		coreRes := sim.NewCore(eng, name+"-core", p.HostCoreSpeed)
		proc := sim.NewProc(eng, coreRes, serverWakeup)
		stack := makeStack(m.Host, proc)
		srv := server.New(server.Options{
			Name:        name,
			Params:      p,
			Seed:        seed,
			Port:        core.ClientPort,
			DisableCron: cfg.DisableCron,
			Shards:      p.HostShards,
			Listeners:   p.RouteListeners,
			Cluster:     route,
			// Every node gets the consistency defaults — slaves too, since a
			// promoted slave must keep enforcing the deployment's level.
			WriteConsistency: cfg.Consistency.Level,
			WriteQuorum:      cfg.Consistency.Quorum,
		}, eng, stack, proc)
		if rs, okRDMA := stack.(*rconn.Stack); okRDMA {
			rs.Device().SetMetrics(srv.Metrics())
		}
		return srv, stack
	}

	env := workload.Env{
		Eng: eng, Params: p, MakeStack: makeStack, Wakeup: p.ClientWakeup,
		Port: core.ClientPort, Resolve: c.resolveEP,
	}
	if cfg.Cluster.Masters > 1 {
		c.buildMulti(newServer, env)
		return c
	}

	// Master (with SmartNIC when SKV). Host endpoints register in epByName
	// so control processes (respPool users like the ack-loss ledger) can dial
	// nodes by name on the legacy topology too.
	c.epByName = make(map[string]*fabric.Endpoint)
	c.MasterMachine = net.NewMachine("master", cfg.Kind == KindSKV)
	c.epByName[c.MasterMachine.Host.Name()] = c.MasterMachine.Host
	c.Master, _ = newServer("master", c.MasterMachine, cfg.Seed+100, nil)

	if cfg.Kind == KindSKV {
		c.NicKV = core.NewNicKV(eng, net, c.MasterMachine, p, cfg.SKV)
		c.HostKV = core.AttachMaster(c.Master, net, c.MasterMachine.NIC, cfg.SKV)
	}

	// Slaves.
	for i := 0; i < cfg.Slaves; i++ {
		m := net.NewMachine(fmt.Sprintf("slave%d", i), false)
		c.SlaveMachines = append(c.SlaveMachines, m)
		c.epByName[m.Host.Name()] = m.Host
		srv, _ := newServer(fmt.Sprintf("slave%d", i), m, cfg.Seed+200+int64(i), nil)
		c.Slaves = append(c.Slaves, srv)
		if cfg.Kind == KindSKV {
			// SLAVEOF through the SmartNIC (§III-C). Delay one tick so the
			// NIC listener exists before the first request.
			agent := core.AttachSlave(srv, net, c.MasterMachine.NIC, cfg.SKV)
			c.SlaveAgents = append(c.SlaveAgents, agent)
		} else {
			target := c.MasterMachine.Host
			srvRef := srv
			eng.At(0, func() { srvRef.SlaveOf(target, core.ClientPort) })
		}
	}

	// The clients route by a one-group slot map over the dial target, fixed
	// at build time: the master host, or the SmartNIC endpoint when the
	// workload exercises NIC-served reads. The map is the clients' alone
	// (c.SlotMap stays nil) and does not follow promotion: a promoted
	// slave's writes are not merged back when it is demoted.
	target := c.MasterMachine.Host
	if cfg.NicReads == NicReadsClients {
		target = c.MasterMachine.NIC
		c.epByName[target.Name()] = target
	}
	table, err := slots.NewMap(1, nil, []string{target.Name()})
	if err != nil {
		panic(fmt.Sprintf("cluster: one-group slot map: %v", err))
	}
	env.Table = table
	if cfg.Kind == KindSKV && cfg.Tracking && cfg.NicReads != NicReadsClients {
		// Redirect mode: the server forwards tracked interest to its NIC
		// and the NIC pushes invalidations out-of-band to the subscriber.
		env.Invalidation = c.MasterMachine.NIC
		env.InvalidationPort = core.NicPort
	}
	c.addClients(env)
	return c
}

// addClients builds Cfg.Clients clients routing by env.Table, one machine
// each (the load generator box is never the bottleneck, as with
// redis-benchmark on its own server), named and seeded independently of the
// group count.
func (c *Cluster) addClients(env workload.Env) {
	cfg := c.Cfg
	for i := 0; i < cfg.Clients; i++ {
		name := fmt.Sprintf("client%d", i)
		env.EP = c.Net.NewMachine(name, false).Host
		env.Gen = workload.NewGeneratorSkew(cfg.Seed+300+int64(i), cfg.KeySpace, cfg.ValueSize, 1.0-cfg.GetRatio, cfg.Zipf, cfg.zipfS())
		c.Clients = append(c.Clients, workload.New(name, env, workload.Options{
			Pipeline: cfg.Pipeline, Tracking: cfg.Tracking, CacheSize: cfg.CacheSize,
		}))
	}
}

// resolveEP maps a server address (an endpoint name) to its endpoint.
func (c *Cluster) resolveEP(addr string) *fabric.Endpoint {
	ep := c.epByName[addr]
	if ep == nil {
		panic(fmt.Sprintf("cluster: address %q resolves to no endpoint", addr))
	}
	return ep
}

// buildMulti assembles the hash-slot deployment: Masters replication
// groups, one shared epoch-versioned slot map every server routes against,
// and clients routing by that map. Group gi's machines are named
// g<gi>.master / g<gi>.slave<i>; seeds are offset by 1000*gi so groups draw
// independent but reproducible randomness.
func (c *Cluster) buildMulti(
	newServer func(name string, m *fabric.Machine, seed int64, route *server.ClusterRouting) (*server.Server, transport.Stack),
	env workload.Env,
) {
	cfg := c.Cfg
	p := c.Params
	eng := c.Eng
	net := c.Net
	c.epByName = make(map[string]*fabric.Endpoint)

	// Master machines first: the slot map's addresses are their host
	// endpoint names, and every server is born already routing against it.
	masterMachines := make([]*fabric.Machine, cfg.Cluster.Masters)
	addrs := make([]string, cfg.Cluster.Masters)
	for gi := range masterMachines {
		m := net.NewMachine(fmt.Sprintf("g%d.master", gi), true)
		masterMachines[gi] = m
		addrs[gi] = m.Host.Name()
		c.epByName[m.Host.Name()] = m.Host
	}
	slotMap, err := slots.NewMap(cfg.Cluster.Masters, cfg.Cluster.SlotRanges, addrs)
	if err != nil {
		panic(fmt.Sprintf("cluster: slot map construction failed after validation: %v", err))
	}
	c.SlotMap = slotMap

	for gi := 0; gi < cfg.Cluster.Masters; gi++ {
		g := &Group{Index: gi, MasterMachine: masterMachines[gi]}
		route := &server.ClusterRouting{Self: gi, Map: slotMap, Port: core.ClientPort}
		skvCfg := cfg.SKV
		skvCfg.Group = fmt.Sprintf("g%d", gi)

		name := fmt.Sprintf("g%d.master", gi)
		g.Master, _ = newServer(name, g.MasterMachine, cfg.Seed+100+1000*int64(gi), route)
		g.NicKV = core.NewNicKV(eng, net, g.MasterMachine, p, skvCfg)
		g.HostKV = core.AttachMaster(g.Master, net, g.MasterMachine.NIC, skvCfg)

		for i := 0; i < cfg.Cluster.SlavesPerMaster; i++ {
			sname := fmt.Sprintf("g%d.slave%d", gi, i)
			m := net.NewMachine(sname, false)
			g.SlaveMachines = append(g.SlaveMachines, m)
			c.epByName[m.Host.Name()] = m.Host
			srv, _ := newServer(sname, m, cfg.Seed+200+1000*int64(gi)+int64(i), route)
			g.Slaves = append(g.Slaves, srv)
			agent := core.AttachSlave(srv, net, g.MasterMachine.NIC, skvCfg)
			g.SlaveAgents = append(g.SlaveAgents, agent)
			// Per-slot failover: promotion moves the group's slots to this
			// slave's address (epoch bump → clients repair on MOVED or
			// reconnect); demotion on master recovery moves them back. This
			// models the converged gossip state, not per-node propagation.
			gidx := gi
			slaveEP := m.Host
			masterEP := g.MasterMachine.Host
			srv.OnRoleChange = func(r server.Role) {
				if r == server.RoleMaster {
					slotMap.SetAddr(gidx, slaveEP.Name())
				} else {
					slotMap.SetAddr(gidx, masterEP.Name())
				}
			}
		}
		c.Groups = append(c.Groups, g)

		// Legacy aliases (group 0 / concatenations) keep group-agnostic
		// helpers like AwaitReplication working untouched.
		if gi == 0 {
			c.Master = g.Master
			c.HostKV = g.HostKV
			c.NicKV = g.NicKV
			c.MasterMachine = g.MasterMachine
		}
		c.Slaves = append(c.Slaves, g.Slaves...)
		c.SlaveAgents = append(c.SlaveAgents, g.SlaveAgents...)
		c.SlaveMachines = append(c.SlaveMachines, g.SlaveMachines...)
	}

	env.Table = slotMap
	c.addClients(env)
}

// AwaitReplication runs the simulation until every slave reaches the
// steady-state replication phase, or the timeout elapses. Returns success.
func (c *Cluster) AwaitReplication(timeout sim.Duration) bool {
	deadline := c.Eng.Now().Add(timeout)
	for c.Eng.Now() < deadline {
		if c.replicationReady() {
			return true
		}
		c.Eng.Run(c.Eng.Now().Add(sim.Millisecond))
	}
	return c.replicationReady()
}

func (c *Cluster) replicationReady() bool {
	if c.Cfg.Kind == KindSKV {
		for _, a := range c.SlaveAgents {
			if !a.Synced() {
				return false
			}
		}
		return true
	}
	for _, s := range c.Slaves {
		if !s.SyncedWithMaster() {
			return false
		}
	}
	return true
}

// StartClients starts every client; their closed loops begin as soon as
// each dial completes.
func (c *Cluster) StartClients() {
	if c.clientsStarted {
		return
	}
	c.clientsStarted = true
	for _, cl := range c.Clients {
		cl.Start()
	}
}

// Result summarizes one measured run.
type Result struct {
	System     string
	Clients    int
	Slaves     int
	ValueSize  int
	Throughput float64 // operations per second
	Avg        sim.Duration
	P50        sim.Duration
	P99        sim.Duration
	Ops        uint64
	ErrReplies uint64
	// MasterUtil is the master dispatch core's busy fraction over the window.
	MasterUtil float64
	// ShardUtils is each master shard core's busy fraction (HostShards > 1).
	ShardUtils []float64
	// RouteUtils is each master routing core's busy fraction
	// (RouteListeners > 1).
	RouteUtils []float64
	// NicUtil is Nic-KV's main ARM core busy fraction (SKV only).
	NicUtil float64
	// Masters is the replication-group count (1 for legacy deployments).
	Masters int
	// GroupOps is the per-group operation count over the measure window
	// (one entry per group) — the slot-load balance across groups.
	GroupOps []uint64
	// Moved counts MOVED redirects clients absorbed over the whole run
	// (Masters > 1 only).
	Moved uint64
}

func (r Result) String() string {
	return fmt.Sprintf("%-11s clients=%-3d slaves=%d val=%-5d  tput=%8.1f kops/s  avg=%7.1fµs  p50=%7.1fµs  p99=%7.1fµs",
		r.System, r.Clients, r.Slaves, r.ValueSize,
		r.Throughput/1000, r.Avg.Micros(), r.P50.Micros(), r.P99.Micros())
}

// Measure starts the clients (if not yet), lets the system warm up, then
// measures for the given duration and aggregates client-side statistics —
// the redis-benchmark protocol.
func (c *Cluster) Measure(warmup, duration sim.Duration) Result {
	c.StartClients()
	start := c.Eng.Now().Add(warmup)
	for _, cl := range c.Clients {
		cl.SetWarmup(start)
	}
	end := start.Add(duration)
	// Utilization is reported over the measure window — the same window
	// throughput and latency are measured over — so handshake, sync, and
	// warmup CPU don't pollute the busy fraction. Run to the window start,
	// snapshot each core's busy-time accumulator, then run the window.
	c.Eng.Run(start)
	busyAt := func(core *sim.Core) sim.Duration { return core.BusyTime() }
	masterBusy := busyAt(c.Master.Proc().Core)
	var shardBusy, routeBusy []sim.Duration
	for _, sp := range c.Master.ShardProcs() {
		shardBusy = append(shardBusy, busyAt(sp.Core))
	}
	for _, rp := range c.Master.RouteProcs() {
		routeBusy = append(routeBusy, busyAt(rp.Core))
	}
	var nicBusy sim.Duration
	if c.NicKV != nil {
		nicBusy = busyAt(c.NicKV.Proc().Core)
	}
	groupStart := c.groupDone()
	c.Eng.Run(end)
	windowUtil := func(before sim.Duration, core *sim.Core) float64 {
		u := float64(core.BusyTime()-before) / float64(duration)
		if u > 1 {
			u = 1
		}
		return u
	}

	agg := stats.NewHistogram()
	var errs, moved uint64
	for _, cl := range c.Clients {
		agg.Merge(cl.Histogram())
		st := cl.Stats()
		errs += st.ErrReplies
		moved += st.Moved
	}
	nClients := len(c.Clients)
	masters := 1
	if len(c.Groups) > 0 {
		masters = len(c.Groups)
	}
	res := Result{
		System:     c.Cfg.Kind.String(),
		Clients:    nClients,
		Slaves:     len(c.Slaves),
		Masters:    masters,
		Moved:      moved,
		ValueSize:  c.Cfg.ValueSize,
		Throughput: float64(agg.Count()) / duration.Seconds(),
		Avg:        agg.Mean(),
		P50:        agg.Percentile(50),
		P99:        agg.Percentile(99),
		Ops:        agg.Count(),
		ErrReplies: errs,
		MasterUtil: windowUtil(masterBusy, c.Master.Proc().Core),
	}
	for i, sp := range c.Master.ShardProcs() {
		res.ShardUtils = append(res.ShardUtils, windowUtil(shardBusy[i], sp.Core))
	}
	for i, rp := range c.Master.RouteProcs() {
		res.RouteUtils = append(res.RouteUtils, windowUtil(routeBusy[i], rp.Core))
	}
	if c.NicKV != nil {
		res.NicUtil = windowUtil(nicBusy, c.NicKV.Proc().Core)
	}
	res.GroupOps = c.groupDone()
	for g := range res.GroupOps {
		res.GroupOps[g] -= groupStart[g]
	}
	return res
}

// groupDone sums the clients' per-group completion counters, sized by the
// groups the clients route to (one on a single-master deployment).
func (c *Cluster) groupDone() []uint64 {
	var sum []uint64
	for _, cl := range c.Clients {
		for g, n := range cl.Stats().GroupDone {
			if g == len(sum) {
				sum = append(sum, 0)
			}
			sum[g] += n
		}
	}
	return sum
}

// Run advances the simulation to the given horizon (helper for scenario
// scripts like the availability experiment).
func (c *Cluster) Run(until sim.Time) { c.Eng.Run(until) }

// Snapshots collects the metrics snapshot of every registry in the cluster
// — the fabric, the master, each slave, and (SKV) the NIC — ordered by node
// name so two identical runs render byte-identically.
func (c *Cluster) Snapshots() []metrics.Snapshot {
	var snaps []metrics.Snapshot
	if reg := c.Net.Metrics(); reg != nil {
		snaps = append(snaps, reg.Snapshot())
	}
	addServer := func(s *server.Server) {
		snaps = append(snaps, s.Metrics().Snapshot())
		for _, reg := range s.ShardRegistries() {
			snaps = append(snaps, reg.Snapshot())
		}
		for _, reg := range s.RouteRegistries() {
			snaps = append(snaps, reg.Snapshot())
		}
	}
	if len(c.Groups) > 0 {
		for _, g := range c.Groups {
			addServer(g.Master)
			for _, s := range g.Slaves {
				addServer(s)
			}
			if g.NicKV != nil {
				snaps = append(snaps, g.NicKV.Metrics().Snapshot())
			}
		}
	} else {
		addServer(c.Master)
		for _, s := range c.Slaves {
			addServer(s)
		}
		if c.NicKV != nil {
			snaps = append(snaps, c.NicKV.Metrics().Snapshot())
		}
	}
	for i := 1; i < len(snaps); i++ {
		for j := i; j > 0 && snaps[j].Node < snaps[j-1].Node; j-- {
			snaps[j], snaps[j-1] = snaps[j-1], snaps[j]
		}
	}
	return snaps
}

// SnapshotsString renders all cluster snapshots as one deterministic text
// block (test oracle: two identical sim runs must produce identical output).
func (c *Cluster) SnapshotsString() string {
	var b strings.Builder
	for _, s := range c.Snapshots() {
		b.WriteString(s.String())
	}
	return b.String()
}
