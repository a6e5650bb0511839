// cluster-hybrid reproduces the scenario of the paper's Figure 10 and
// Table 1: NAS BT class B on a four-node cluster under the unified
// (hybrid) controller, showing the coordination between the out-of-band
// fan and the in-band DVFS knob — the aggressive fan policy delays the
// performance-costly frequency scaling.
//
//	go run ./examples/cluster-hybrid
package main

import (
	"fmt"
	"log"

	"thermctl"
)

func main() {
	fmt.Println("BT.B.4 on four nodes under the unified hybrid controller (max duty 50%)")
	fmt.Printf("%-6s %-10s %-14s %-10s %-12s\n",
		"Pp", "exec (s)", "tDVFS trigger", "avg W", "freq chgs")

	for _, pp := range []int{75, 50, 25} {
		cluster, err := thermctl.NewCluster(4, thermctl.ExperimentSeed)
		if err != nil {
			log.Fatal(err)
		}
		cluster.Settle(0)

		// One hybrid controller per node, as daemons run per machine.
		var hybrids []*thermctl.Hybrid
		for i, n := range cluster.Nodes {
			h, err := thermctl.NewUnified(n, pp, 50)
			if err != nil {
				log.Fatal(err)
			}
			cluster.AddNodeController(i, h)
			hybrids = append(hybrids, h)
		}

		res := cluster.RunProgram(thermctl.BTB4(), 0)

		// Earliest in-band trigger across the nodes.
		trigger := "never"
		for _, h := range hybrids {
			if at, ok := h.DVFS.TriggeredAt(); ok {
				trigger = fmt.Sprintf("%.0f s", at.Seconds())
				break
			}
		}
		var watts float64
		var changes uint64
		for _, n := range cluster.Nodes {
			watts += n.Meter.AverageW()
			changes += n.CPU.Transitions()
		}
		fmt.Printf("%-6d %-10.1f %-14s %-10.2f %-12d\n",
			pp, res.ExecTime.Seconds(), trigger, watts/4, changes)
	}

	fmt.Println("\nCoordination at work: a smaller (more aggressive) fan policy keeps the")
	fmt.Println("die cooler for longer, so the in-band knob — which costs execution")
	fmt.Println("time — is triggered later, and the performance spread stays small.")
}
