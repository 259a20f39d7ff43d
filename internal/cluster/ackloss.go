// Ack-loss probe: the experiment behind the consistency plane's headline
// claim. A closed-loop ledger writer hammers a single-master SKV deployment
// whose replication stream is batched (so acknowledged bytes can sit
// unflushed on the master), the master crashes mid-load, the NIC fails over,
// and the probe then audits every write the cluster ACKNOWLEDGED against the
// promoted survivor's store. Under async consistency the batching window is
// a durability hole — acked writes die with the master. Under quorum/all the
// reply only fires after enough slaves hold the write and failover promotes
// the max-offset survivor, so the audit must come back clean.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"skv/internal/consistency"
	"skv/internal/resp"
	"skv/internal/server"
	"skv/internal/sim"
)

// ackLossSpec pins the probe's shape (the determinism tests re-run it
// verbatim and diff the traces).
const (
	aklSlaves       = 3
	aklLedgerKeys   = 8
	aklLedgerWindow = 4
	aklBatchCmds    = 64
	aklBatchDelay   = 2 * sim.Millisecond
	aklCrashAt      = 307 * sim.Millisecond
	aklRunFor       = 1300 * sim.Millisecond
	aklSettle       = 700 * sim.Millisecond
)

// ackLedger is the probe's oracle: a closed-loop writer that SETs a fixed
// key ring with a strictly increasing sequence per write and records, per
// key, the highest sequence the cluster acknowledged. Unlike the reshard
// ledger it never re-routes — the probe targets one master and stops cold
// when that master is crashed, so replies in flight at the crash are simply
// never recorded (an unacked write is allowed to be lost).
type ackLedger struct {
	pool *respPool
	addr string
	keys []string

	running bool
	seq     int
	acked   map[string]int // key -> highest acked seq

	WritesAcked uint64
	Errs        uint64
}

func newAckLedger(c *Cluster, addr string, n int) *ackLedger {
	l := &ackLedger{pool: newRespPool(c, "ackledger"), addr: addr, acked: map[string]int{}}
	for i := 0; i < n; i++ {
		l.keys = append(l.keys, fmt.Sprintf("akl:%d", i))
	}
	return l
}

func (l *ackLedger) start() {
	l.running = true
	for i := 0; i < aklLedgerWindow; i++ {
		l.next()
	}
}

func (l *ackLedger) stop() { l.running = false }

func (l *ackLedger) next() {
	if !l.running {
		return
	}
	l.pool.proc.Core.Charge(l.pool.c.Params.ClientThinkCPU)
	seq := l.seq
	l.seq++
	k := l.keys[seq%len(l.keys)]
	l.pool.send(l.addr, resp.EncodeCommand("SET", k, ackValue(k, seq)), func(rv resp.Value) {
		if !l.running {
			return // reply surfaced after the crash cutoff: not counted
		}
		if rv.IsError() {
			l.Errs++
		} else if prev, seen := l.acked[k]; !seen || seq > prev {
			l.acked[k] = seq
			l.WritesAcked++
		} else {
			l.WritesAcked++
		}
		l.next()
	})
}

// ackValue is the unique per-write payload; the audit parses the sequence
// back out of the survivor's store.
func ackValue(k string, seq int) string { return fmt.Sprintf("%s#%d", k, seq) }

func ackSeq(val string) (int, bool) {
	i := strings.LastIndexByte(val, '#')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(val[i+1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// AckLossResult is everything RunAckLossProbe measured.
type AckLossResult struct {
	C *Cluster
	H *Chaos

	// WritesAcked counts replies the ledger recorded before the crash; Lost
	// lists each acknowledged write the promoted survivor does not hold
	// (empty = the consistency level held its durability promise).
	WritesAcked uint64
	Lost        []string
	// Promoted names the slave the NIC promoted.
	Promoted string
}

// RunAckLossProbe builds a 1-master/3-slave SKV deployment at the given
// write consistency level, batches the replication stream (64 cmds / 2ms —
// the window that makes async acks volatile), crashes the master mid-load,
// and audits the ledger against the promoted survivor. The returned error
// covers harness failures (replication or failover never happened); lost
// writes are data, reported in AckLossResult.Lost.
func RunAckLossProbe(level consistency.Level, w int, seed int64) (*AckLossResult, error) {
	p := ChaosParams(0)
	p.ReplBatchMaxCmds = aklBatchCmds
	p.ReplBatchMaxDelay = aklBatchDelay
	var ledger *ackLedger
	c, h, err := run(Scenario{
		Name: "ackloss",
		// No workload clients: the ledger is the probe's only load.
		Config: Config{
			Slaves:      aklSlaves,
			Seed:        seed,
			Params:      p,
			Consistency: ConsistencyOpts{Level: level, Quorum: w},
		},
		Script: func(h *Chaos) {
			ledger = newAckLedger(h.C, h.C.MasterMachine.Host.Name(), aklLedgerKeys)
			ledger.start()
			// Stop the ledger in the same instant the master dies: anything
			// without a recorded reply by then does not count as
			// acknowledged.
			h.At(aklCrashAt, "crash master", func(c *Cluster) {
				ledger.stop()
				c.Master.Crash()
			})
		},
		RunFor: aklRunFor,
		Settle: aklSettle,
	})
	if err != nil {
		return nil, err
	}

	res := &AckLossResult{C: c, H: h, WritesAcked: ledger.WritesAcked}
	if ledger.Errs > 0 {
		return res, fmt.Errorf("ackloss: ledger absorbed %d error replies", ledger.Errs)
	}
	if ledger.WritesAcked == 0 {
		return res, fmt.Errorf("ackloss: ledger acknowledged no writes before the crash")
	}
	if c.NicKV.Failovers == 0 || c.NicKV.PromotedID() == "" {
		return res, fmt.Errorf("ackloss: the NIC never failed over (promoted=%q)", c.NicKV.PromotedID())
	}
	res.Promoted = c.NicKV.PromotedID()

	// Audit: every acknowledged write must be visible on the promoted
	// survivor, either as the acked value itself or a later one (a write in
	// flight at the crash may have replicated without its reply landing).
	var surv *server.Server
	for _, s := range c.Slaves {
		if s.Alive() && s.Role() == server.RoleMaster {
			if surv != nil {
				return res, fmt.Errorf("ackloss: split brain — two promoted slaves")
			}
			surv = s
		}
	}
	if surv == nil {
		return res, fmt.Errorf("ackloss: no promoted slave is serving as master")
	}
	for _, k := range ledger.keys {
		ackedSeq, wasAcked := ledger.acked[k]
		if !wasAcked {
			continue
		}
		reply, _ := surv.Store().Exec(0, [][]byte{[]byte("get"), []byte(k)})
		var r resp.Reader
		r.Feed(reply)
		v, okV, _ := r.ReadValue()
		if !okV || v.Null {
			res.Lost = append(res.Lost, fmt.Sprintf("%s: acked seq %d, survivor holds nothing", k, ackedSeq))
			continue
		}
		gotSeq, okSeq := ackSeq(string(v.Str))
		if !okSeq {
			res.Lost = append(res.Lost, fmt.Sprintf("%s: acked seq %d, survivor holds garbage %q", k, ackedSeq, v.Str))
			continue
		}
		if gotSeq < ackedSeq {
			res.Lost = append(res.Lost, fmt.Sprintf("%s: acked seq %d, survivor stuck at seq %d", k, ackedSeq, gotSeq))
		}
	}
	return res, nil
}
