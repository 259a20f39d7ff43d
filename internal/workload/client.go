package workload

import (
	"fmt"
	"strings"

	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
	"skv/internal/transport"
)

// client is the benchmark client: slot-aware closed loops. It keeps a
// client-side copy of the hash-slot map, routes every command to the group
// that owns its key's slot over one connection per group, and repairs its map
// when a server answers MOVED (refreshing from the authoritative table,
// standing in for a CLUSTER SLOTS round trip). A single-master deployment is
// the one-group case: group 0 owns every slot and the seed is the one server.
//
// The closed-loop window is PER GROUP, not global: each group gets its own
// Pipeline-deep window, refilled only by completions of requests targeting
// that group (as cluster benchmarks keep one pipeline per node connection).
// A shared window would let a single dead group absorb every in-flight slot
// and starve the healthy groups — exactly the blast radius the hash-slot
// design exists to prevent. Refills draw from the shared generator and
// discard keys owned by other groups (rejection sampling), so the key
// distribution is preserved while the loops stay independent. Connection
// loss, dial timeouts, and a stall watchdog re-route the affected in-flight
// requests after a short back-off.
//
// With tracking on, every connection negotiates CLIENT TRACKING right after
// its dial and tracked GETs are served from a local cache. Invalidations
// arrive in-band as '>' pushes on the data connections or, in redirect mode
// (Env.Invalidation set), on a subscription to the master's SmartNIC. The
// cache is flushed whenever a connection is recovered or the slot map is
// refreshed (pushes may have been missed / interest may now live on a node
// we no longer talk to), and single keys are dropped on MOVED/ASK redirects
// and on the client's own writes.
type client struct {
	name   string
	eng    *sim.Engine
	params *model.Params
	proc   *sim.Proc
	stack  transport.Stack
	gen    *Generator

	pipeline int
	running  bool

	warmupUntil sim.Time
	hist        *stats.Histogram
	series      *stats.TimeSeries

	// table is the deployment's authoritative slot map; refreshes copy from
	// it (the simulation's stand-in for asking any node CLUSTER SLOTS).
	table *slots.Map
	// resolve maps a slot-map address (an endpoint name) to its endpoint.
	resolve func(addr string) *fabric.Endpoint
	port    int

	// Client-side view of the slot map. Bootstrapped deliberately stale —
	// epoch 0, every slot owned by group 0, only the seed address known —
	// exactly like a real cluster client that learns the topology through
	// MOVED redirects from its seed node.
	epoch uint64
	owner []uint16
	addrs []string

	conns map[int]*groupConn

	tracking bool
	cache    *cache
	// cacheOn arms local serving and cache fills. In-band it holds for the
	// whole run; in redirect mode it needs the subscription ack and is
	// cleared — with a cache flush — whenever either channel drops and
	// pushes may have been missed.
	cacheOn bool
	// trackCmd is the per-connection tracking handshake (naming the current
	// subscription in redirect mode).
	trackCmd []byte

	// Redirect-mode subscription. Every re-subscription takes a fresh
	// subName (generation subGen), so a late drop the server forwards for a
	// dead connection cannot disarm the live one. looping records that the
	// first ack started the closed loops.
	inv     *fabric.Endpoint
	invPort int
	subConn transport.Conn
	subName string
	subGen  int
	looping bool

	// Counters, as documented on Stats.
	sent          uint64
	done          uint64
	errReplies    uint64
	hits          uint64
	misses        uint64
	invalidations uint64
	flushes       uint64

	// moved counts MOVED redirects (each also triggers a map refresh unless
	// the view is already current), asked the ASK redirects (one-shot
	// retries that deliberately do NOT refresh the map — the migration
	// window is transient and the source still owns the slot), tryAgain the
	// TRYAGAIN replies retried after a back-off, mapRefreshes the copies
	// taken from the authoritative table, redials the reconnect attempts
	// after a close or dial failure.
	moved        uint64
	asked        uint64
	tryAgain     uint64
	mapRefreshes uint64
	redials      uint64
	// groupDone / groupErrs break completions and error replies down by the
	// group that served them (per-slot availability during failover).
	groupDone []uint64
	groupErrs []uint64
}

// askingCmd is the one-shot admission prefix sent before an ASK retry;
// trackOnCmd is the in-band per-connection tracking handshake.
var (
	askingCmd  = resp.EncodeCommand("ASKING")
	trackOnCmd = resp.EncodeCommand("client", "tracking", "on")
)

// dialTimeout bounds a dial whose handshake was swallowed by a downed
// endpoint; retryDelay spaces reconnect and re-subscription attempts after
// a failure. requestTimeout is the stall watchdog: a connection with
// in-flight requests and no traffic for this long is torn down and its
// requests re-routed. This is what detects a wedged master — the process
// keeps its endpoints up and just goes silent, so no close event ever comes.
const (
	dialTimeout    = 250 * sim.Millisecond
	retryDelay     = 20 * sim.Millisecond
	requestTimeout = 250 * sim.Millisecond
)

// groupConn is one connection to one replication group's current address.
type groupConn struct {
	group    int
	addr     string
	conn     transport.Conn
	reader   resp.Reader
	inflight []request // FIFO, matches reply order
	queue    []request // parked while the dial is outstanding
	// lastActivity is the last send or receive, for the stall watchdog.
	lastActivity sim.Time
}

// request is one routed request; slot is its key's hash slot, and sentAt
// the first-issue time so redirect and retry hops count toward the recorded
// latency. target is the group whose window the request occupies (its
// authoritative slot owner at generation time) — completion refills that
// window, wherever the reply actually came from. marker requests are protocol filler (the ASKING that
// precedes an ASK retry, the tracking handshake): their replies are
// consumed without accounting, and they are dropped — not re-dispatched —
// when a connection is recovered (the paired data request re-routes by
// slot and earns a fresh ASK if the migration is still open). poisoned
// GETs raced an invalidation push (or went out while the cache was
// disarmed) and must not populate the cache.
type request struct {
	cmd      []byte
	key      string
	slot     int
	target   int
	sentAt   sim.Time
	get      bool
	marker   bool
	poisoned bool
}

// New builds a client on its own core. env.Table is required; its group 0
// address is the seed the client dials first.
func New(name string, env Env, opts Options) KV {
	proc := sim.NewProc(env.Eng, sim.NewCore(env.Eng, name+"-core", env.Params.HostCoreSpeed), env.Wakeup)
	groups := env.Table.Groups()
	c := &client{
		name:      name,
		eng:       env.Eng,
		params:    env.Params,
		proc:      proc,
		stack:     env.MakeStack(env.EP, proc),
		gen:       env.Gen,
		pipeline:  opts.Pipeline,
		hist:      stats.NewHistogram(),
		table:     env.Table,
		resolve:   env.Resolve,
		port:      env.Port,
		owner:     make([]uint16, slots.NumSlots),
		addrs:     make([]string, groups),
		conns:     make(map[int]*groupConn),
		tracking:  opts.Tracking,
		groupDone: make([]uint64, groups),
		groupErrs: make([]uint64, groups),
	}
	c.addrs[0] = env.Table.Addr(0) // seed node
	if opts.Tracking {
		size := opts.CacheSize
		if size <= 0 {
			size = DefaultCacheSize
		}
		c.cache = newCache(size)
		c.trackCmd = trackOnCmd
		if env.Invalidation != nil {
			c.inv, c.invPort = env.Invalidation, env.InvalidationPort
			c.setSubName(name)
		}
	}
	return c
}

func (c *client) Name() string                  { return c.name }
func (c *client) Stop()                         { c.running = false }
func (c *client) SetWarmup(until sim.Time)      { c.warmupUntil = until }
func (c *client) SetSeries(s *stats.TimeSeries) { c.series = s }
func (c *client) Histogram() *stats.Histogram   { return c.hist }

func (c *client) Stats() Stats {
	return Stats{
		Sent: c.sent, Done: c.done, ErrReplies: c.errReplies,
		Hits: c.hits, Misses: c.misses,
		Invalidations: c.invalidations, Flushes: c.flushes,
		Moved: c.moved, Asked: c.asked, TryAgain: c.tryAgain,
		MapRefreshes: c.mapRefreshes, Redials: c.redials,
		GroupDone: append([]uint64(nil), c.groupDone...),
		GroupErrs: append([]uint64(nil), c.groupErrs...),
	}
}

// CacheEntries snapshots the tracked cache (nil when tracking is off).
func (c *client) CacheEntries() map[string]string {
	if c.cache == nil {
		return nil
	}
	return c.cache.entries()
}

// Start begins the per-group closed loops (dialing lazily as routes are
// needed). Groups that own no slots get no window. In redirect mode the
// loops wait for the first subscription ack: the NIC must know the
// subscriber before any interest recorded for it is forwarded, or a push
// could be dropped while the client caches the value it covered.
func (c *client) Start() {
	if c.pipeline <= 0 {
		c.pipeline = 1
	}
	c.eng.Every(requestTimeout, c.checkStalls)
	c.running = true
	if c.inv != nil {
		c.subscribe(c.subGen)
		return
	}
	c.cacheOn = c.tracking // in-band: pushes share each connection's FIFO
	c.startLoops()
}

func (c *client) startLoops() {
	for g := 0; g < c.table.Groups(); g++ {
		for i := 0; i < c.pipeline; i++ {
			c.sendNextFor(g)
		}
	}
}

// setSubName names the redirect-mode subscription and the handshake that
// points data connections at it.
func (c *client) setSubName(name string) {
	c.subName = name
	c.trackCmd = resp.EncodeCommand("client", "tracking", "on", "redirect", name)
}

// subscribe dials the invalidation endpoint and registers subscription
// generation gen; superseded generations give up.
func (c *client) subscribe(gen int) {
	if !c.running || gen != c.subGen {
		return
	}
	c.stack.Dial(c.inv, c.invPort, func(conn transport.Conn, err error) {
		if gen != c.subGen {
			if err == nil {
				conn.Close() // superseded
			}
			return
		}
		if err != nil {
			c.resubscribe()
			return
		}
		c.subConn = conn
		conn.SetHandler(func(data []byte) { c.onSubData(conn, data) })
		conn.SetCloseHandler(func() {
			if c.subConn == conn {
				c.resubscribe()
			}
		})
		conn.Send(core.EncodeTrackHello(c.subName))
	})
}

// resubscribe handles the loss of either redirect-mode channel:
// invalidations may have been missed, so the cache is disarmed and flushed,
// every in-flight GET is poisoned, live data connections re-negotiate
// tracking under a fresh subscription name, and the new subscription is
// dialed after retryDelay.
func (c *client) resubscribe() {
	if c.subConn != nil {
		conn := c.subConn
		c.subConn = nil
		conn.Close()
	}
	c.cacheOn = false
	c.flushCache()
	c.poison("")
	c.subGen++
	c.setSubName(fmt.Sprintf("%s#%d", c.name, c.subGen))
	for g := 0; g < len(c.addrs); g++ { // index order: deterministic
		if sc := c.conns[g]; sc != nil && sc.conn != nil {
			c.send(sc, request{cmd: c.trackCmd, marker: true})
		}
	}
	gen := c.subGen
	c.eng.After(retryDelay, func() { c.subscribe(gen) })
}

func (c *client) onSubData(conn transport.Conn, data []byte) {
	if c.subConn != conn {
		return
	}
	ok := core.ParseSubscriberFrames(data, func() {
		c.cacheOn = true
		if !c.looping {
			c.looping = true
			c.startLoops()
		}
	}, c.applyInvalidation)
	if !ok {
		panic(fmt.Sprintf("workload: client %s got garbage on the invalidation channel", c.name))
	}
}

// checkStalls tears down connections whose in-flight requests have seen no
// traffic for requestTimeout. Groups are scanned in index order — never by
// map iteration — so recovery ordering is deterministic across runs.
func (c *client) checkStalls() {
	now := c.eng.Now()
	for g := 0; g < len(c.addrs); g++ {
		sc := c.conns[g]
		if sc == nil || sc.conn == nil || len(sc.inflight) == 0 {
			continue
		}
		if now.Sub(sc.lastActivity) >= requestTimeout {
			c.recoverReqs(sc)
		}
	}
}

// sendNextFor refills target group tg's window with the next generated
// command whose key tg owns (draws for other groups are discarded — their
// own loops will produce equivalent draws). Ownership is read from the
// authoritative table: generation is workload synthesis, not routing — the
// possibly-stale client view only decides where the request is SENT.
func (c *client) sendNextFor(tg int) {
	if !c.running || c.table.Count(tg) == 0 {
		return
	}
	for {
		cmd, op, key := c.gen.NextKeyed()
		c.proc.Core.Charge(c.params.ClientThinkCPU)
		slot := slots.Slot([]byte(key))
		if c.table.Owner(slot) != tg {
			continue
		}
		if c.tracking {
			if op == OpGet && c.cacheOn {
				if _, ok := c.cache.get(key); ok {
					c.localHit(c.eng.Now(), func() { c.sendNextFor(tg) })
					return
				}
				c.misses++
			} else if op == OpSet {
				// Read-your-writes: drop our own copy now — the push
				// confirming this write would arrive only after the ack.
				c.cache.invalidate(key)
				c.poison(key)
			}
		}
		c.sent++
		c.dispatch(request{cmd: cmd, key: key, slot: slot, target: tg, sentAt: c.eng.Now(), get: op == OpGet})
		return
	}
}

// localHit completes one tracked GET from the cache: the value is already
// in client memory, so the op costs one think-time beat on the client core
// and never touches the wire. refill re-arms the closed-loop window slot
// the hit occupied.
func (c *client) localHit(sentAt sim.Time, refill func()) {
	c.hits++
	c.proc.Post(c.params.ClientThinkCPU, func() {
		c.done++
		c.record(sentAt)
		refill()
	})
}

// record books one completion's latency if past warm-up.
func (c *client) record(sentAt sim.Time) {
	now := c.eng.Now()
	if now >= c.warmupUntil {
		c.hist.Record(now.Sub(sentAt))
		if c.series != nil {
			c.series.Record(now)
		}
	}
}

// poison marks every in-flight or queued GET for key (every GET when key is
// empty): its reply may carry a value an invalidation push just retired.
func (c *client) poison(key string) {
	mark := func(reqs []request) {
		for i := range reqs {
			if reqs[i].get && (key == "" || reqs[i].key == key) {
				reqs[i].poisoned = true
			}
		}
	}
	for g := 0; g < len(c.addrs); g++ {
		if sc := c.conns[g]; sc != nil {
			mark(sc.inflight)
			mark(sc.queue)
		}
	}
}

func (c *client) applyInvalidation(key string) {
	c.invalidations++
	c.cache.invalidate(key)
	c.poison(key)
}

// flushCache empties the tracked cache (reconnects, subscription loss,
// topology changes — any event after which pushed invalidations may have
// been missed).
func (c *client) flushCache() {
	if c.cache == nil || c.cache.len() == 0 {
		return
	}
	c.cache.flush()
	c.flushes++
}

// dropKey drops one cache entry on a redirect: the key's interest now
// lives (or will be re-recorded) on another node, so the cached copy can
// no longer be trusted to see its invalidation.
func (c *client) dropKey(key string) {
	if c.tracking {
		c.cache.invalidate(key)
	}
}

// dispatch routes one request by its key's slot under the current view.
func (c *client) dispatch(r request) {
	c.sendTo(int(c.owner[r.slot]), r)
}

// sendTo queues one request on group g's connection, dialing if needed.
// dispatch computes g from the slot map; the ASK path forces it.
func (c *client) sendTo(g int, r request) {
	sc := c.conns[g]
	if sc == nil {
		sc = &groupConn{group: g, addr: c.addrs[g]}
		c.conns[g] = sc
		sc.queue = append(sc.queue, r)
		c.dial(sc)
		return
	}
	if sc.conn == nil {
		sc.queue = append(sc.queue, r) // dial outstanding
		return
	}
	c.send(sc, r)
}

// send puts one request on sc's live connection. A GET sent while the cache
// is disarmed may record its interest under a subscription the NIC does not
// hold, so it is poisoned.
func (c *client) send(sc *groupConn, r request) {
	if !c.cacheOn {
		r.poisoned = true
	}
	sc.inflight = append(sc.inflight, r)
	sc.lastActivity = c.eng.Now()
	sc.conn.Send(r.cmd)
}

func (c *client) dial(sc *groupConn) {
	c.redials++
	c.eng.After(dialTimeout, func() {
		if c.conns[sc.group] == sc && sc.conn == nil {
			// Handshake swallowed by a dead endpoint: give up on this
			// attempt and re-route its requests.
			c.recoverReqs(sc)
		}
	})
	c.stack.Dial(c.resolve(sc.addr), c.port, func(conn transport.Conn, err error) {
		if c.conns[sc.group] != sc || sc.conn != nil {
			if err == nil {
				conn.Close() // superseded
			}
			return
		}
		if err != nil {
			c.recoverReqs(sc)
			return
		}
		sc.conn = conn
		conn.SetHandler(func(data []byte) { c.onReply(sc, conn, data) })
		conn.SetCloseHandler(func() {
			if c.conns[sc.group] == sc && sc.conn == conn {
				sc.conn = nil
				c.recoverReqs(sc)
			}
		})
		if c.tracking {
			// Handshake first: FIFO guarantees the node records the
			// tracking mode before admitting any queued GET's interest.
			c.send(sc, request{cmd: c.trackCmd, marker: true})
		}
		q := sc.queue
		sc.queue = nil
		for _, r := range q {
			c.send(sc, r)
		}
	})
}

// recoverReqs retires a broken connection and re-dispatches everything it
// carried after retryDelay, refreshing the slot map first (the group's
// address may have moved to a promoted slave in the meantime). With
// tracking on the cache is flushed: pushes may have died with the
// connection, and the interest recorded on the lost node is gone. In
// redirect mode the server also drops the subscription on the NIC when it
// sees the close, so the client subscribes afresh.
func (c *client) recoverReqs(sc *groupConn) {
	if c.conns[sc.group] != sc {
		return
	}
	delete(c.conns, sc.group)
	reqs := append(sc.inflight, sc.queue...)
	sc.inflight, sc.queue = nil, nil
	if sc.conn != nil {
		conn := sc.conn
		sc.conn = nil
		conn.Close()
	}
	if c.inv != nil {
		c.resubscribe()
	} else if c.tracking {
		c.flushCache()
	}
	c.eng.After(retryDelay, func() {
		c.refreshMap()
		for _, r := range reqs {
			if r.marker {
				continue // ASKING filler: its data request re-routes alone
			}
			c.dispatch(r)
		}
	})
}

// askRetry performs the one-shot ASK protocol: send ASKING then the same
// request to the redirect's address. Unlike MOVED this must NOT refresh the
// slot map — the source still owns the slot until the migration finishes,
// and adopting the target early would bounce every other key in the slot.
// The address is resolved to a group through the authoritative table (the
// simulation's stand-in for a real client keying connections by address).
func (c *client) askRetry(addr string, req request) bool {
	g := -1
	for i := 0; i < c.table.Groups(); i++ {
		if c.table.Addr(i) == addr {
			g = i
			break
		}
	}
	if g < 0 {
		return false // address not in the deployment: caller falls back
	}
	if c.addrs[g] != addr {
		// Our view has a stale (or unlearned) address for this group; an
		// ASK names the live endpoint, so adopt it. Any connection to the
		// old address is retired and its requests re-route normally.
		if sc := c.conns[g]; sc != nil && sc.addr != addr {
			c.recoverReqs(sc)
		}
		c.addrs[g] = addr
	}
	c.sendTo(g, request{cmd: askingCmd, marker: true})
	c.sendTo(g, req)
	return true
}

// refreshMap copies the authoritative table if it is newer than our view,
// then retires connections whose group address changed. With tracking on a
// topology change flushes the cache: entries may now be owned by nodes
// that hold no interest for us.
func (c *client) refreshMap() {
	if c.epoch == c.table.Epoch() {
		return
	}
	c.proc.Core.Charge(c.params.ClientThinkCPU)
	c.epoch = c.table.CopyInto(c.owner, c.addrs)
	c.mapRefreshes++
	if c.tracking {
		c.flushCache()
	}
	for g := 0; g < len(c.addrs); g++ { // index order: deterministic
		if sc := c.conns[g]; sc != nil && sc.addr != c.addrs[g] {
			c.recoverReqs(sc)
		}
	}
}

func (c *client) onReply(sc *groupConn, conn transport.Conn, data []byte) {
	if c.conns[sc.group] != sc || sc.conn != conn {
		return
	}
	sc.lastActivity = c.eng.Now()
	sc.reader.Feed(data)
	for {
		v, ok, err := sc.reader.ReadValue()
		if err != nil {
			panic(fmt.Sprintf("workload: client %s got protocol garbage: %v", c.name, err))
		}
		if !ok {
			return
		}
		if v.IsPush() {
			if key, isInv := pushedKey(v); isInv {
				c.applyInvalidation(key)
			}
			continue
		}
		if len(sc.inflight) == 0 {
			continue // reply for a request already re-routed elsewhere
		}
		req := sc.inflight[0]
		sc.inflight = sc.inflight[1:]
		if req.marker {
			continue // +OK for an ASKING/handshake prefix: no accounting, no refill
		}
		if v.IsError() {
			msg := string(v.Str)
			kind, _, addr, _ := slots.ParseRedirectKind(msg)
			switch kind {
			case slots.RedirectMoved:
				// Stale view: repair the map and re-issue the same request
				// (sentAt preserved — the extra hop is real latency).
				c.moved++
				c.dropKey(req.key)
				c.refreshMap()
				c.dispatch(req)
				continue
			case slots.RedirectAsk:
				c.asked++
				c.dropKey(req.key)
				if c.askRetry(addr, req) {
					continue
				}
				// Unknown address (should not happen in a converged
				// deployment): fall back to a map refresh and re-route.
				c.refreshMap()
				c.dispatch(req)
				continue
			}
			if strings.HasPrefix(msg, "TRYAGAIN") {
				// Half-migrated multi-key window: back off and retry the
				// same request (sentAt preserved).
				c.tryAgain++
				c.eng.After(retryDelay, func() { c.dispatch(req) })
				continue
			}
			c.errReplies++
			c.groupErrs[sc.group]++
		}
		c.done++
		c.groupDone[sc.group]++
		c.record(req.sentAt)
		if req.get && c.cacheOn && !req.poisoned && v.Type == resp.TypeBulk && !v.Null {
			c.cache.put(req.key, v.Str)
		}
		c.sendNextFor(req.target)
	}
}

// pushedKey extracts the invalidated key from a tracking push frame, or
// ok=false for pushes the client does not understand (ignored).
func pushedKey(v resp.Value) (string, bool) {
	if len(v.Array) != 2 || string(v.Array[0].Str) != "invalidate" {
		return "", false
	}
	return string(v.Array[1].Str), true
}
