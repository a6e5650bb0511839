package thermctl_test

import (
	"fmt"
	"log"
	"time"

	"thermctl"
)

// The Example functions double as godoc documentation and as executable
// regression checks: their printed output is verified by `go test`.

// Example shows the smallest complete control loop: one node, dynamic
// fan control, sustained load.
func Example() {
	node, err := thermctl.NewNode("example", 42)
	if err != nil {
		log.Fatal(err)
	}
	node.Settle(0)

	ctl, err := thermctl.NewDynamicFanControl(node, 50, 100)
	if err != nil {
		log.Fatal(err)
	}
	node.SetGenerator(thermctl.CPUBurn(1))
	for node.Elapsed() < 5*time.Minute {
		node.Step(250 * time.Millisecond)
		ctl.OnStep(node.Elapsed())
	}
	fmt.Printf("fan engaged: %v\n", node.Fan.Duty() > 20)
	fmt.Printf("die held under 58C: %v\n", node.TrueDieC() < 58)
	// Output:
	// fan engaged: true
	// die held under 58C: true
}

// ExampleNewUnified demonstrates the coordinated fan+DVFS controller on
// a weak fan: the in-band knob engages only once the out-of-band knob
// hits its cap.
func ExampleNewUnified() {
	node, err := thermctl.NewNode("unified", 7)
	if err != nil {
		log.Fatal(err)
	}
	node.Settle(0)

	unified, err := thermctl.NewUnified(node, 50, 25) // fan capped at 25%
	if err != nil {
		log.Fatal(err)
	}
	node.SetGenerator(thermctl.CPUBurn(2))
	for node.Elapsed() < 10*time.Minute {
		node.Step(250 * time.Millisecond)
		unified.OnStep(node.Elapsed())
	}
	fmt.Printf("DVFS engaged: %v\n", unified.TDVFS.Engaged())
	fmt.Printf("frequency reduced: %v\n", node.CPU.FreqGHz() < 2.4)
	fmt.Printf("few transitions: %v\n", node.CPU.Transitions() <= 6)
	// Output:
	// DVFS engaged: true
	// frequency reduced: true
	// few transitions: true
}

// ExampleNewCluster runs a parallel program across four nodes and
// measures its execution time — the substrate behind the paper's
// Table 1.
func ExampleNewCluster() {
	cluster, err := thermctl.NewCluster(4, 1)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Settle(0)
	res := cluster.RunProgram(thermctl.BTB4(), 0)
	fmt.Printf("completed: %v\n", !res.TimedOut)
	fmt.Printf("ran about 219s: %v\n", res.ExecTime.Seconds() > 210 && res.ExecTime.Seconds() < 230)
	// Output:
	// completed: true
	// ran about 219s: true
}
