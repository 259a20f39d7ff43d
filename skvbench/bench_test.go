package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"skv/internal/sim"
)

// wallClock reports whether a metric is measured in wall-clock time (or
// from the Go runtime), and so differs between two runs of one seed.
func wallClock(name string) bool {
	switch name {
	case "wall_kops", "setup_s", "max_rss_mb", "sim.wall_ns_per_event":
		return true
	}
	for _, p := range []string{"span.", "go.", "cpu.", "trace."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// virtual keeps the metrics a seed fixes: virtual-time results and
// per-layer counts.
func virtual(o *outcome) map[string]float64 {
	m := map[string]float64{"attempted": float64(o.attempted), "failed": float64(o.failed)}
	for k, v := range o.values {
		if !wallClock(k) {
			m[k] = v
		}
	}
	return m
}

func TestSimSameSeedSameVirtualMetrics(t *testing.T) {
	for _, spec := range []simSpec{paperSet, scaleoutRead} {
		t.Run(spec.name, func(t *testing.T) {
			var runs []map[string]float64
			for i := 0; i < 2; i++ {
				o, err := runSim(spec, 7, 5*sim.Millisecond, false)
				if err != nil {
					t.Fatal(err)
				}
				if o.gate != nil {
					t.Fatalf("gate failed: %v", o.gate)
				}
				runs = append(runs, virtual(o))
			}
			if fmt.Sprint(runs[0]) != fmt.Sprint(runs[1]) {
				t.Fatalf("same seed, different virtual metrics:\n%v\n%v", runs[0], runs[1])
			}
			if runs[0]["kops"] == 0 || runs[0]["sim.events_per_op"] == 0 {
				t.Fatalf("nothing measured: %v", runs[0])
			}
		})
	}
}

func TestSeedChangesStream(t *testing.T) {
	a, err := runSim(paperSet, 7, 5*sim.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSim(paperSet, 8, 5*sim.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(virtual(a)) == fmt.Sprint(virtual(b)) {
		t.Fatal("seeds 7 and 8 gave identical paper-set runs")
	}
	stream := func(seed int64) []byte {
		c := newTCPClient(tcpLoopback, 0, seed)
		var buf []byte
		for i := 0; i < 100; i++ {
			buf, _ = c.next(buf)
		}
		return buf
	}
	if bytes.Equal(stream(7), stream(8)) {
		t.Fatal("seeds 7 and 8 generated the same tcp-loopback stream")
	}
	if !bytes.Equal(stream(7), stream(7)) {
		t.Fatal("seed 7 generated two different tcp-loopback streams")
	}
}

// TestFig11CrossCheck ties paper-set to the EXPERIMENTS.md scorecard: at
// Fig 11's seed and window (50ms warm-up, 300ms measured) it reproduces
// the SKV @8 clients row.
func TestFig11CrossCheck(t *testing.T) {
	c, _, err := setupSim(paperSet, 44)
	if err != nil {
		t.Fatal(err)
	}
	r := measureWindow(c, 300*sim.Millisecond, simSlices).res
	got := fmt.Sprintf("%.1f kops/s avg %.1f us p99 %.1f us", r.Throughput/1000, r.Avg.Micros(), r.P99.Micros())
	if want := "323.1 kops/s avg 24.8 us p99 27.1 us"; got != want {
		t.Fatalf("Fig 11 SKV @8: got %s, want %s", got, want)
	}
}

func TestSimGatesRejectTampering(t *testing.T) {
	t.Run("paper-set keyspace", func(t *testing.T) {
		c, _, err := setupSim(paperSet, 7)
		if err != nil {
			t.Fatal(err)
		}
		measureWindow(c, 2*sim.Millisecond, 1)
		// A write the replication stream never carries.
		c.Master.Store().Exec(0, [][]byte{[]byte("SET"), []byte("tampered"), []byte("x")})
		if _, err := checkSim(c, paperSet); err == nil {
			t.Fatal("convergence gate accepted a master the slaves do not match")
		}
	})
	t.Run("scaleout stale cache", func(t *testing.T) {
		c, _, err := setupSim(scaleoutRead, 7)
		if err != nil {
			t.Fatal(err)
		}
		measureWindow(c, 2*sim.Millisecond, 1)
		if _, err := checkSim(c, scaleoutRead); err != nil {
			t.Fatalf("untampered run failed its gate: %v", err)
		}
		var key string
		for _, cl := range c.Clients {
			for k := range cl.CacheEntries() {
				key = k
				break
			}
			if key != "" {
				break
			}
		}
		if key == "" {
			t.Fatal("no cached entries to tamper with")
		}
		// Change the master's value behind the tracking plane: every
		// client caching the key now holds a stale entry.
		ownerOf(c, key).Store().Exec(0, [][]byte{[]byte("SET"), []byte(key), []byte("changed")})
		want := 0
		for _, cl := range c.Clients {
			if _, ok := cl.CacheEntries()[key]; ok {
				want++
			}
		}
		if _, stale := checkCaches(c); stale != want {
			t.Fatalf("cache gate found %d stale entries, want %d", stale, want)
		}
	})
}

func TestTCPGatesRejectTampering(t *testing.T) {
	spec := tcpLoopback
	spec.keys = 2000
	spec.warmup = 50 * time.Millisecond
	s, _, err := setupTCP(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	c := s.clients[0]
	if bad, err := c.checkLedger(); bad != 0 || err != nil || c.errs != 0 {
		t.Fatalf("untampered ledger: %d mismatches, %d failed requests, %v", bad, c.errs, err)
	}

	// An altered ledger value is caught on read-back.
	c.ledger[3]++
	if bad, _ := c.checkLedger(); bad != 1 {
		t.Fatalf("ledger gate found %d mismatches, want 1", bad)
	}
	c.ledger[3]--

	// A value changed behind the client's back (by the other connection)
	// fails the GETs of the run.
	other := s.clients[1]
	for i := range c.ledger {
		other.wbuf = append(other.wbuf, "*3\r\n$3\r\nSET\r\n"...)
		other.wbuf = appendBulk(other.wbuf, appendKey(nil, c.id+spec.conns*i))
		other.wbuf = appendBulk(other.wbuf, []byte("changed"))
	}
	if _, err := other.nc.Write(other.wbuf); err != nil {
		t.Fatal(err)
	}
	if err := other.expect(len(c.ledger), func(byte, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.loop(time.Now().Add(20*time.Millisecond), false); err != nil {
		t.Fatal(err)
	}
	if c.errs == 0 || c.badRead == nil {
		t.Fatal("GETs of changed values were not counted as failures")
	}
}
