package core

import (
	"strconv"
	"strings"

	"skv/internal/resp"
	"skv/internal/store"
	"skv/internal/tracking"
	"skv/internal/transport"
)

// Nic-KV side of redirect-mode CLIENT TRACKING: the invalidation interest
// table lives on the SmartNIC and pushes are generated where the write
// stream already flows — the replication fan-out path — so invalidating N
// subscribers costs zero host dispatch cycles (the same argument §III-C
// makes for replication itself).
//
// Three inputs feed the table:
//   - msgTrackHello (subscriber → NIC): a client registers its push
//     channel under a chosen name; the bare tag echoes back as the ack.
//   - msgTrackKey (master → NIC): the host forwards one tracked read's
//     interest. It rides the same FIFO connection as replication requests,
//     so interest always lands before any later write's fan-out.
//   - msgTrackDrop (master → NIC): forget one subscriber (CLIENT TRACKING
//     OFF or disconnect) — without it churning clients would pin the table.
//
// Everything is lazily allocated and every hook is gated on table/sub
// emptiness: deployments that never track keep the NIC event stream
// bit-for-bit.

// nicSubscriber is one armed push channel: conn identifies it for close
// cleanup, push delivers one invalidation on it. Dedicated subscription
// channels carry binary msgInvalidate frames; NIC-served read connections
// (niccache) get RESP3 push frames in-band on their data connection.
type nicSubscriber struct {
	conn transport.Conn
	push func(key string)
}

// nicTracking is NicKV's invalidation state, nil until the first
// subscriber or interest frame arrives.
type nicTracking struct {
	table     *tracking.Table
	subs      map[string]*nicSubscriber
	subByConn map[transport.Conn]string // reverse map for close cleanup
	nextName  uint64                    // synthetic names for NIC-served connections
}

// initTracking allocates the tracking plane on first use.
func (n *NicKV) initTracking() *nicTracking {
	if n.track == nil {
		n.track = &nicTracking{
			table:     tracking.New(n.params.TrackTableMax),
			subs:      make(map[string]*nicSubscriber),
			subByConn: make(map[transport.Conn]string),
		}
		n.track.table.OnEvict = func(key string, subs []string) {
			for _, name := range subs {
				n.sendInvalidation(name, key)
			}
		}
	}
	return n.track
}

// registerSubscriber arms a dedicated invalidation push channel
// (msgTrackHello): pushes go out as binary msgInvalidate frames.
// Re-registration under the same name supersedes the old channel.
func (n *NicKV) registerSubscriber(name string, conn transport.Conn) {
	n.armSubscriber(name, conn, func(key string) {
		n.proc.Core.Charge(n.params.NicInvalidateCPU)
		conn.Send(appendStr([]byte{msgInvalidate}, key))
	})
	n.proc.Core.Charge(n.params.NicInvalidateCPU)
	conn.Send([]byte{msgTrackHello}) // ack: the channel is live
}

// armSubscriber installs (or replaces) one subscriber's push channel.
func (n *NicKV) armSubscriber(name string, conn transport.Conn, push func(key string)) {
	t := n.initTracking()
	if old, ok := t.subs[name]; ok && old.conn != conn {
		delete(t.subByConn, old.conn)
		t.table.DropSub(name)
	}
	t.subs[name] = &nicSubscriber{conn: conn, push: push}
	t.subByConn[conn] = name
}

// dropSubscriber forgets one subscriber's channel and every interest it
// holds. Called for msgTrackDrop frames and for push-channel closes.
func (n *NicKV) dropSubscriber(name string) {
	t := n.track
	if t == nil {
		return
	}
	if sub, ok := t.subs[name]; ok {
		delete(t.subs, name)
		delete(t.subByConn, sub.conn)
	}
	t.table.DropSub(name)
}

// trackInterest records one subscriber's interest in one key
// (msgTrackKey). Interest from a subscriber whose push channel is gone is
// dropped: there is nowhere to push, and the client flushes its cache on
// channel loss anyway.
func (n *NicKV) trackInterest(name, key string) {
	t := n.track
	if t == nil || t.subs[name] == nil {
		return
	}
	n.proc.Core.Charge(n.params.TrackInterestCPU)
	t.table.Add(key, name)
}

// pushTrackInvalidations scans one fanned-out stream chunk for writes to
// tracked keys and pushes invalidations to their subscribers. Runs at the
// tail of fanOut, so the push is generated by the same NIC event that
// replicates the write — piggybacked, not an extra host round trip. The
// chunk is concatenated self-framing RESP commands (the same bytes the
// slaves apply), so a plain RESP reader walks it; SELECT injections and
// other non-writes fall out of the Write check. Gated on table occupancy:
// untracked deployments never even parse.
func (n *NicKV) pushTrackInvalidations(cmdBytes []byte) {
	t := n.track
	if t == nil || t.table.Len() == 0 {
		return
	}
	n.proc.Core.Charge(n.params.NicParseReqCPU)
	var rd resp.Reader
	rd.Feed(cmdBytes)
	for {
		argv, ok, err := rd.ReadCommand()
		if err != nil || !ok {
			return
		}
		cmd := store.LookupCommand(argv[0])
		if cmd == nil || !cmd.Write {
			continue
		}
		if cmd.FirstKey == 0 {
			// Keyless dirty command (FLUSHDB and friends): every tracked
			// key is stale.
			for _, e := range t.table.TakeAll() {
				for _, name := range e.Subs {
					n.sendInvalidation(name, e.Key)
				}
			}
			continue
		}
		cmd.EachKey(argv, func(key []byte) {
			k := string(key)
			for _, name := range t.table.Take(k) {
				n.sendInvalidation(name, k)
			}
		})
	}
}

// sendInvalidation pushes one invalidation to one subscriber over
// whatever channel kind it armed.
func (n *NicKV) sendInvalidation(name, key string) {
	sub := n.track.subs[name]
	if sub == nil {
		return
	}
	n.InvalidationsPushed++
	n.mInvalidations.Inc()
	sub.push(key)
}

// nicClientCmd handles the CLIENT command on a NIC-served read connection
// (Config.ServeReadsFromNIC): "CLIENT TRACKING ON|OFF". Interest lands in
// the NIC's own table and invalidations come back in-band as RESP3 push
// frames — no separate subscription channel, and no host involvement at
// all. Redirect mode is meaningless here (the table is already where the
// pushes originate) and is rejected.
func (n *NicKV) nicClientCmd(c *nicClient, argv [][]byte) []byte {
	if len(argv) < 3 || !strings.EqualFold(string(argv[1]), "tracking") {
		return resp.AppendError(nil, "ERR unknown CLIENT subcommand")
	}
	switch strings.ToLower(string(argv[2])) {
	case "on":
		if len(argv) != 3 {
			return resp.AppendError(nil, "ERR syntax error in CLIENT TRACKING")
		}
		if !c.track {
			t := n.initTracking()
			t.nextName++
			c.track = true
			c.trackName = "nicc#" + strconv.FormatUint(t.nextName, 10)
		}
		conn := c.conn
		n.armSubscriber(c.trackName, conn, func(key string) {
			n.proc.Core.Charge(n.params.NicInvalidateCPU)
			conn.Send(resp.AppendInvalidatePush(nil, []byte(key)))
		})
		return resp.AppendSimple(nil, "OK")
	case "off":
		if c.track {
			c.track = false
			n.dropSubscriber(c.trackName)
		}
		return resp.AppendSimple(nil, "OK")
	}
	return resp.AppendError(nil, "ERR syntax error in CLIENT TRACKING")
}

// nicRecordInterest registers a NIC-served tracked read's key interest at
// admission, on the main ARM core.
func (n *NicKV) nicRecordInterest(c *nicClient, cmd *store.Command, argv [][]byte) {
	if !c.track || n.track == nil || cmd == nil || cmd.Write || cmd.Server || cmd.FirstKey <= 0 {
		return
	}
	n.proc.Core.Charge(n.params.TrackInterestCPU)
	t := n.track
	cmd.EachKey(argv, func(key []byte) { t.table.Add(string(key), c.trackName) })
}

// TrackingLen reports the number of distinct keys in the NIC's interest
// table (0 when the tracking plane never initialized).
func (n *NicKV) TrackingLen() int {
	if n.track == nil {
		return 0
	}
	return n.track.table.Len()
}

// TrackingSubscribers reports how many armed push channels the NIC holds.
func (n *NicKV) TrackingSubscribers() int {
	if n.track == nil {
		return 0
	}
	return len(n.track.subs)
}

// SeverSubscriber simulates one tracking subscriber's push channel failing:
// the NIC closes it (the peer sees the close) and forgets the subscriber.
// Reports whether the subscriber was armed.
func (n *NicKV) SeverSubscriber(name string) bool {
	if n.track == nil || n.track.subs[name] == nil {
		return false
	}
	n.track.subs[name].conn.Close()
	return true
}
