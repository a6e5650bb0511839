// fan-failure demonstrates fault-driven thermal protection: the CPU fan
// seizes mid-run, and three protection schemes race the rising die
// temperature — nothing (hardware PROCHOT only), tDVFS (reacts to the
// temperature symptom), and the tach watchdog (reacts to the failure
// cause). The watchdog wins because on a dead fan every second at full
// power costs about a degree.
//
//	go run ./examples/fan-failure
package main

import (
	"fmt"
	"log"
	"time"

	"thermctl"
	"thermctl/internal/core"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

func main() {
	fmt.Println("CPU fan seizes at t=90s under cpu-burn (hardware trip point 66 °C)")
	fmt.Printf("%-12s %-12s %-12s %-14s %-12s\n",
		"protection", "peak °C", "emergencies", "clamped time", "detected at")

	for _, scheme := range []string{"none", "tDVFS", "watchdog"} {
		cfg := node.DefaultConfig("demo-"+scheme, 2026)
		cfg.ProtectC = 66
		n, err := node.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		n.Settle(0)
		// A healthy 60% fan until the failure.
		port := &core.SysfsFanPort{FS: n.FS, Chip: n.Hwmon}
		if err := port.SetDutyPercent(60); err != nil {
			log.Fatal(err)
		}

		var ctl interface{ OnStep(time.Duration) }
		var wd *core.Watchdog
		switch scheme {
		case "tDVFS":
			ctl, err = thermctl.NewTDVFS(n, 50)
		case "watchdog":
			// The tach watchdog is no scenario technique: it is wired by
			// hand onto the node's DVFS actuator.
			act, aerr := core.NewDVFSActuator(&core.SysfsFreqPort{FS: n.FS, Paths: n.Cpufreq})
			if aerr != nil {
				log.Fatal(aerr)
			}
			rpm := func() (float64, error) {
				v, err := n.FS.ReadInt(n.Hwmon.FanInput)
				return float64(v), err
			}
			wd, err = core.NewWatchdog(core.DefaultWatchdogConfig(), rpm, act)
			ctl = wd
		default:
			ctl = nopController{}
		}
		if err != nil {
			log.Fatal(err)
		}

		n.SetGenerator(workload.NewCPUBurn(nil))
		peak := 0.0
		dt := 250 * time.Millisecond
		for n.Elapsed() < 12*time.Minute {
			n.Step(dt)
			ctl.OnStep(n.Elapsed())
			if n.Elapsed() == 90*time.Second {
				n.Fan.SetFailed(true)
			}
			if v := n.TrueDieC(); v > peak {
				peak = v
			}
		}

		detected := "n/a"
		if wd != nil {
			if evs := wd.Events(); len(evs) > 0 {
				detected = fmt.Sprintf("t=%s", evs[0].At.Truncate(time.Second))
			}
		}
		fmt.Printf("%-12s %-12.2f %-12d %-14s %-12s\n",
			scheme, peak, n.Emergencies(),
			n.ProtectedTime().Truncate(time.Second), detected)
	}

	fmt.Println("\nReacting to the cause (tach stall) beats reacting to the symptom")
	fmt.Println("(temperature): the watchdog down-clocks within seconds of the")
	fmt.Println("seizure and the die never approaches the hardware trip point.")
}

type nopController struct{}

func (nopController) OnStep(time.Duration) {}
