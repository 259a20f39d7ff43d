// Chaos: run the scripted failure scenarios from the chaos harness
// (internal/cluster) end to end and print each scenario's event trace plus
// its convergence verdict. Every scenario drives the SmartNIC failure
// detector (§III-D) through a different failure shape — master restart
// after failover, slave crash/recovery, a flapping endpoint, a NIC↔slave
// partition, and lossy links — using the deterministic fault-injection
// plane in internal/fabric. Same seeds, same traces, every run.
package main

import (
	"fmt"
	"os"

	"skv/internal/cluster"
)

func main() {
	failed := 0
	for _, s := range cluster.ChaosScenarios() {
		fmt.Printf("== %s (slaves=%d clients=%d seed=%d) ==\n", s.Name, s.Slaves, s.Clients, s.Seed)
		c, h, err := cluster.RunScenario(s)
		if h != nil {
			fmt.Print(h.TraceString())
		}
		if err != nil {
			failed++
			fmt.Printf("NOT CONVERGED: %v\n\n", err)
			continue
		}
		var clientErrs uint64
		for _, cl := range c.Clients {
			clientErrs += cl.Stats().ErrReplies
		}
		fmt.Printf("converged: master offset %d, %d valid slaves, %d failovers, %d restores, %d client errors\n\n",
			c.Master.ReplOffset(), c.NicKV.ValidSlaves(), c.NicKV.Failovers, c.NicKV.MasterRestores, clientErrs)
	}
	if failed > 0 {
		fmt.Printf("%d scenario(s) failed to converge\n", failed)
		os.Exit(1)
	}
	fmt.Println("all scenarios converged")
}
