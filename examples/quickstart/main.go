// Quickstart: build one simulated server, attach the unified thermal
// controller, run a heavy workload for five minutes of simulated time,
// and watch the coordinated knobs hold the die temperature.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"thermctl"
)

func main() {
	// A simulated server with the paper's platform: Athlon64 4000+,
	// a 4300 RPM PWM fan behind an ADT7467 on i2c, lm-sensors-grade
	// thermal sensor, virtual sysfs and a BMC. Deterministic: the same
	// seed always produces the same run.
	node, err := thermctl.NewNode("demo", 42)
	if err != nil {
		log.Fatal(err)
	}
	node.Settle(0) // start from idle thermal equilibrium

	// The unified controller: dynamic fan control and temperature-aware
	// DVFS coordinated under one policy parameter. Pp=50 balances
	// temperature against cooling cost; the fan is capped at 40% duty
	// so the in-band knob will have to help.
	unified, err := thermctl.NewUnified(node, 50, 40)
	if err != nil {
		log.Fatal(err)
	}

	// cpu-burn: sustained full load.
	node.SetGenerator(thermctl.CPUBurn(7))

	fmt.Println("time     temp     fan duty  frequency  DVFS")
	dt := 250 * time.Millisecond
	for node.Elapsed() < 5*time.Minute {
		node.Step(dt)
		unified.OnStep(node.Elapsed())

		if node.Elapsed()%(30*time.Second) == 0 {
			state := "idle"
			if unified.TDVFS.Engaged() {
				state = "engaged"
			}
			fmt.Printf("%-8s %5.1f °C %7.0f %%  %6.1f GHz  %s\n",
				node.Elapsed(), node.Sensor.Read(), node.Fan.Duty(),
				node.CPU.FreqGHz(), state)
		}
	}

	fmt.Printf("\nAfter 5 minutes of cpu-burn:\n")
	fmt.Printf("  die temperature  %.1f °C (threshold was 51 °C)\n", node.TrueDieC())
	fmt.Printf("  average power    %.1f W\n", node.Meter.AverageW())
	fmt.Printf("  freq transitions %d (tDVFS acts rarely, by design)\n", node.CPU.Transitions())
}
