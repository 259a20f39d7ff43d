package cluster

import (
	"runtime"
	"testing"

	"skv/internal/core"
	"skv/internal/sim"
)

// BenchmarkPaperSetWindow measures the simulator's own cost on the paper's
// Fig 11 write path: SKV with one master and three slaves, the default
// single-threaded host, 8 closed-loop SET clients of 64-byte values over
// 10k keys. The cluster is built, synced and warmed outside the timer;
// each iteration then runs one fixed 5 ms virtual window. Besides ns/op
// and allocs/op (per window) it reports simulator events per wall second
// and heap allocations per completed client operation.
//
//	go test -run '^$' -bench PaperSetWindow -benchtime 20x ./internal/cluster/
func BenchmarkPaperSetWindow(b *testing.B) {
	const window = 5 * sim.Millisecond
	c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 8, Seed: 1,
		KeySpace: 10_000, ValueSize: 64, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(5 * sim.Second) {
		b.Fatal("initial full sync did not finish in 5s virtual")
	}
	c.StartClients()
	c.Run(c.Eng.Now().Add(50 * sim.Millisecond))
	done := func() uint64 {
		var n uint64
		for _, cl := range c.Clients {
			n += cl.Stats().Done
		}
		return n
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0, ops0 := c.Eng.Processed, done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(c.Eng.Now().Add(window))
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	events, ops := c.Eng.Processed-ev0, done()-ops0
	if ops == 0 {
		b.Fatal("no client operation completed")
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(ops), "allocs/simop")
}
