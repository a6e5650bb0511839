// Command clustersim executes an NPB-like parallel program — or a
// declarative open-loop workload — on a simulated cluster under a
// chosen thermal-control configuration and reports execution time,
// power and thermal statistics per node — the workhorse behind the
// paper's §4.3/§4.4 comparisons.
//
// Usage:
//
//	clustersim [-nodes 4] [-program bt|lu] [-fan dynamic|static|constant|auto]
//	           [-dvfs none|tdvfs|cpuspeed] [-sleep none|ctlarray] [-pp 50]
//	           [-max-duty 50] [-seed N] [-workers GOMAXPROCS]
//	           [-listen 127.0.0.1:9090] [-chaos-seed N] [-scenario run.json]
//	           [-trace run.tct] [-for 60s]
//
// The flags are shorthand for a scenario document (see internal/config):
// -scenario loads the same description from JSON and takes precedence
// over the topology and control flags, so a fleet configuration checked
// into version control drives clustersim, thermctld and the experiment
// harness identically. A scenario that declares a workload block (or
// per-group workloads) instead of a program runs its per-node seeded
// generators for -for simulated time (the chaos horizon wins when the
// scenario replays a fault campaign); see examples/README.md for the
// scenario gallery.
//
// With -sleep ctlarray, the processor sleep-state actuator
// (cstates.Actuator) is driven through the same thermal control array
// as the fan — the paper's "any actuator" claim made concrete — either
// as a second binding on the dynamic fan controller or standalone.
//
// With -listen, the run serves Prometheus-text metrics on /metrics
// (cluster step latency, per-worker shard timing, barrier wait, and
// per-node controller series labeled node="...") plus the standard
// pprof endpoints under /debug/pprof/.
//
// With -chaos-seed, a deterministic fault campaign (internal/faults) is
// generated for every node and replayed during the run: sensors drop
// out, buses NAK, fans degrade, and the controllers must ride it out on
// retry and fail-safe degradation. The fault timeline is printed after
// the run; the same seed yields a byte-identical campaign for any
// worker count.
//
// With -trace, every node's temperature, fan duty, frequency and power
// are streamed once per simulated second to a binary .tct trace file
// (internal/tracefile, DESIGN.md §12) sized for campaigns longer than
// RAM. Inspect, slice and compare the file with cmd/thermtrace; the
// bytes are identical for any -workers value.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/metrics"
)

// traceEvery is the -trace sampling cadence. One simulated second
// keeps the writer's share of the step budget within the 5% bench gate
// (BenchmarkClusterStepTrace) while still resolving every controller
// decision window (the fastest loop reconsiders at 1 s).
const traceEvery = time.Second

func main() {
	s := config.DefaultScenario()
	scenarioPath := flag.String("scenario", "", "JSON scenario file; overrides the topology and control flags")
	flag.IntVar(&s.Nodes, "nodes", 4, "cluster size")
	flag.StringVar(&s.Program, "program", "bt", "program: bt or lu")
	flag.StringVar(&s.Control.Fan, "fan", "dynamic", "fan control: dynamic, static, constant or auto (chip firmware)")
	flag.StringVar(&s.Control.DVFS, "dvfs", "tdvfs", "DVFS daemon: none, tdvfs or cpuspeed")
	flag.StringVar(&s.Control.Sleep, "sleep", "none", "sleep-state control: none, or ctlarray to drive C-states through the thermal control array")
	flag.IntVar(&s.Control.Tuning.Pp, "pp", 50, "policy parameter Pp in [1,100]")
	flag.Float64Var(&s.Control.Tuning.MaxFanDuty, "max-duty", 50, "maximum PWM duty, percent")
	flag.Uint64Var(&s.Seed, "seed", 20100131, "simulation seed")
	flag.IntVar(&s.Workers, "workers", runtime.GOMAXPROCS(0),
		"worker goroutines stepping the nodes (results are identical for any value)")
	listen := flag.String("listen", "", "optional HTTP address for /metrics and /debug/pprof")
	flag.Uint64Var(&s.Chaos.Seed, "chaos-seed", 0,
		"generate and replay a deterministic fault campaign with this seed (0 = no faults)")
	tracePath := flag.String("trace", "", "record per-node series to this binary trace file (inspect with thermtrace)")
	runFor := flag.Duration("for", 60*time.Second,
		"simulated duration of workload (generator-driven) scenarios; programs run to completion")
	flag.Parse()

	if *scenarioPath != "" {
		loaded, err := config.LoadScenario(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		s = loaded
	}
	s.Metrics.Enabled = s.Metrics.Enabled || *listen != ""
	if s.Program == "" && !s.HasWorkload() {
		s.Program = "bt" // bare topology flags mean the classic program run
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		flag.Usage()
		os.Exit(2)
	}

	// The scenario layer owns what used to be this command's wiring
	// loop: cluster construction, the fault campaign, per-node
	// controllers and metric registration.
	rig, err := s.Build()
	if err != nil {
		fatal(err)
	}
	c := rig.Cluster

	if rig.Plane != nil {
		episodes := 0
		for _, sch := range rig.Plane.Plan().Schedules {
			episodes += len(sch.Episodes)
		}
		fmt.Printf("clustersim: chaos seed %d: %d fault episodes across %d nodes\n",
			s.Chaos.Seed, episodes, len(c.Nodes))
	}

	if *listen != "" {
		srv, err := metrics.Serve(*listen, rig.Registry)
		if err != nil {
			fatal(err)
		}
		// Drain in-flight scrapes on exit rather than cutting them off.
		defer func() {
			if err := srv.ShutdownTimeout(2 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "clustersim: metrics shutdown:", err)
			}
		}()
		fmt.Printf("clustersim: metrics and pprof on http://%s/metrics\n", srv.Addr())
	}

	closeTrace := func() {}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		tw, err := config.AttachTraceProbe(c, f, traceEvery)
		if err != nil {
			fatal(err)
		}
		closeTrace = func() {
			if err := tw.Close(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			st, err := os.Stat(*tracePath)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\ntrace: %s (%d bytes); inspect with `go run ./cmd/thermtrace info %s`\n",
				*tracePath, st.Size(), *tracePath)
		}
	}

	load := "workload " + s.Workload.String()
	if rig.Program != nil {
		load = rig.Program.String()
	} else if s.Workload == nil {
		load = "per-group workloads"
	}
	fmt.Printf("clustersim: %s on %d nodes (%d workers), fan=%s dvfs=%s sleep=%s Pp=%d max-duty=%.0f%%\n",
		load, s.Nodes, c.Workers(), s.Control.Fan, s.Control.DVFS, s.Control.Sleep,
		s.Control.Tuning.Pp, s.Control.Tuning.MaxFanDuty)
	res := rig.Run(*runFor)
	if res.Err != nil {
		fatal(res.Err)
	}
	closeTrace()
	if res.TimedOut {
		fmt.Println("WARNING: run hit the simulation time limit")
	}

	if rig.Program != nil {
		fmt.Printf("\nexecution time: %.1f s (ideal at 2.4 GHz: %.1f s)\n",
			res.ExecTime.Seconds(), rig.Program.IdealSeconds(2.4))
	} else {
		fmt.Printf("\nsimulated time: %.1f s\n", res.ExecTime.Seconds())
	}
	fmt.Printf("%-8s %10s %10s %10s %12s %12s\n",
		"node", "avg W", "peak W", "die degC", "fan duty %", "freq chgs")
	var totalW float64
	for _, n := range c.Nodes {
		fmt.Printf("%-8s %10.2f %10.1f %10.2f %12.1f %12d\n",
			n.Name, n.Meter.AverageW(), n.Meter.PeakW(), n.TrueDieC(),
			n.Fan.Duty(), n.CPU.Transitions())
		totalW += n.Meter.AverageW()
	}
	fmt.Printf("\ncluster average power: %.2f W; power-delay product: %.0f W*s/node\n",
		totalW, totalW/float64(len(c.Nodes))*res.ExecTime.Seconds())

	if s.Control.Sleep == "ctlarray" {
		fmt.Printf("\nsleep-state array (cstates through ctlarray):\n")
		for i, nc := range rig.Nodes {
			if mode, moves, ok := nc.SleepState(); ok {
				fmt.Printf("%-8s mode C%d (%d moves)\n", c.Nodes[i].Name, mode, moves)
			}
		}
	}

	if rig.Plane != nil {
		var emergencies uint64
		for _, n := range c.Nodes {
			emergencies += n.Emergencies()
		}
		fmt.Printf("\nchaos: %d episode transitions, %d hardware emergencies\n",
			len(rig.Plane.Events()), emergencies)
		fmt.Print(rig.Plane.Timeline())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clustersim:", err)
	os.Exit(1)
}
