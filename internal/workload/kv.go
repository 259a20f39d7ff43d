package workload

import (
	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
	"skv/internal/transport"
)

// KV is the benchmark-client surface New returns: slot-aware closed loops,
// whose single-master case routes by a one-group slot map. Harnesses
// (benches, chaos scenarios, examples) drive every deployment through it and
// read the same Stats, regardless of topology.
type KV interface {
	// Name returns the client's name (stable across reconnects).
	Name() string
	// Start dials and begins the closed loop(s).
	Start()
	// Stop ends the loop after in-flight requests complete.
	Stop()
	// SetWarmup discards latency samples recorded before the given time.
	SetWarmup(until sim.Time)
	// SetSeries attaches a completion-over-time series (Fig 14).
	SetSeries(s *stats.TimeSeries)
	// Stats returns a copy of the client's counters.
	Stats() Stats
	// Histogram returns the client's latency histogram (after warm-up).
	Histogram() *stats.Histogram
	// CacheEntries returns a copy of the tracked client cache, nil when
	// tracking is off — the hook coherence oracles compare against stores.
	CacheEntries() map[string]string
}

// Options sets how a client behaves.
type Options struct {
	// Pipeline is the number of requests kept in flight per replication
	// group (redis-benchmark -P). 1 = classic closed loop.
	Pipeline int
	// Tracking negotiates CLIENT TRACKING after every (re)dial and serves
	// tracked GETs from a local invalidation-coherent cache.
	Tracking bool
	// CacheSize bounds the tracked cache in entries (0 = DefaultCacheSize).
	CacheSize int
}

// DefaultCacheSize bounds the tracked cache when Options.CacheSize is 0.
const DefaultCacheSize = 4096

// Env is the simulated world a client is built into — everything that is a
// property of the deployment rather than of the client's behavior.
type Env struct {
	Eng    *sim.Engine
	Params *model.Params
	// EP is the client machine's host endpoint.
	EP *fabric.Endpoint
	// MakeStack abstracts the transport choice (TCP vs RDMA).
	MakeStack func(*fabric.Endpoint, *sim.Proc) transport.Stack
	Gen       *Generator
	// Wakeup is the client proc's wakeup cost.
	Wakeup sim.Duration
	// Port is the server port every data connection dials.
	Port int
	// Resolve maps a server address (an endpoint name) to its endpoint.
	Resolve func(addr string) *fabric.Endpoint
	// Table is the deployment's authoritative slot map (required): the
	// client routes by it and dials its group 0 address first, learning the
	// rest of the topology through MOVED redirects from that seed.
	Table *slots.Map
	// Invalidation, when non-nil, is the out-of-band invalidation push
	// endpoint (the master's SmartNIC): a tracking client subscribes there
	// and asks the server to REDIRECT invalidations to that subscription.
	// Nil keeps invalidations in-band ('>' pushes on the data connection).
	Invalidation *fabric.Endpoint
	// InvalidationPort is the port the subscription dials (Invalidation).
	InvalidationPort int
}

// Stats is a copy of one client's counters. Tracking fields stay zero with
// tracking off; Moved, Asked and TryAgain stay zero on a one-group
// deployment.
type Stats struct {
	// Sent and Done count requests put on the wire and replies consumed;
	// ErrReplies the error replies among them (redirects excluded).
	Sent       uint64
	Done       uint64
	ErrReplies uint64

	// Tracking: Hits are GETs served from the local cache (also counted in
	// Done), Misses tracked GETs that went to the network, Invalidations
	// the invalidation pushes applied, Flushes the whole-cache drops
	// (reconnects, topology changes, subscription loss).
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Flushes       uint64

	// Slot routing (see the client type's doc comment for the semantics).
	Moved        uint64
	Asked        uint64
	TryAgain     uint64
	MapRefreshes uint64
	Redials      uint64
	// GroupDone / GroupErrs break network completions and error replies
	// down by serving group (cache hits count toward neither — a hit is
	// served by nobody).
	GroupDone []uint64
	GroupErrs []uint64
}
