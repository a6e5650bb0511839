// Command thermctld is the unified thermal control daemon: it runs a
// simulated node under the paper's coordinated fan+DVFS controller and
// optionally exposes the node's BMC over TCP so external tools can read
// sensors and command the fan out-of-band while the daemon runs.
//
// Usage:
//
//	thermctld [-pp 50] [-max-duty 50] [-duration 10m]
//	          [-fan dynamic|static|constant|auto] [-dvfs none|tdvfs|cpuspeed]
//	          [-sleep none|ctlarray] [-ipmi 127.0.0.1:9623] [-seed 1]
//	          [-config thermctl.json] [-scenario run.json]
//	          [-listen 127.0.0.1:9090] [-faults plan.json] [-trace run.tct]
//
// A JSON config file (see internal/config) overrides the flag defaults:
//
//	{"pp": 25, "max_fan_duty": 60, "threshold_c": 55}
//
// A scenario file (-scenario) goes further: its control section selects
// the techniques and the tuning for this daemon exactly as it does for
// clustersim and the experiment harness — one document, three
// consumers. The daemon runs one node, so the scenario's topology
// fields (nodes, workers, program, chaos) are ignored here.
//
// With -sleep ctlarray, the processor sleep-state actuator rides the
// same thermal control array as the fan (a second binding on the
// dynamic controller, or a standalone array when the fan is not under
// dynamic control).
//
// With -faults, the daemon replays a fault plan (see internal/faults)
// against its own devices; every schedule in the plan must target this
// node, "thermctld". Actuator writes run under the retry policy and the
// controllers degrade to fail-safe when errors persist, so a fault plan
// is a live resilience drill:
//
//	{"name": "drill", "schedules": [{"target": "thermctld",
//	  "episodes": [{"kind": "sensor-dropout", "start": "30s", "for": "20s"}]}]}
//
// With -ipmi, connect with any client speaking this repository's IPMI
// framing, e.g.:
//
//	c, _ := ipmi.Dial("127.0.0.1:9623")
//	t, _ := ipmi.NewClient(c).ReadSensor(1) // CPU temperature
//
// With -listen, the daemon serves Prometheus-text metrics on /metrics
// and the standard pprof profiling endpoints under /debug/pprof/:
//
//	curl http://127.0.0.1:9090/metrics
//
// With -trace, the node's temperature, fan duty, frequency and power
// are streamed every control step to a binary .tct trace file
// (internal/tracefile, DESIGN.md §12); slice and diff it afterwards
// with cmd/thermtrace. The writer is bounded-memory, so a multi-day
// -duration records fine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"thermctl"
	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/faults"
	"thermctl/internal/ipmi"
	"thermctl/internal/metrics"
	"thermctl/internal/rng"
	"thermctl/internal/tracefile"
)

// rng stream indices for the daemon's fault-plane draws, disjoint from
// the node model's own streams (which are derived from the seed with
// small indices).
const (
	faultStream = 0xfa170000
	retryStream = 0xfa170001
)

// options holds the parsed command line plus the test hooks, so the
// daemon loop is runnable (and stoppable) from a test without flag
// registration or os.Exit.
type options struct {
	pp       int
	maxDuty  float64
	duration time.Duration
	ipmiAddr string
	listen   string
	seed     uint64
	every    time.Duration
	verbose  bool
	pace     float64
	cfgPath  string
	scenario string
	fan      string
	dvfs     string
	sleep    string
	faults   string
	trace    string

	// stop, when non-nil, ends the run early from another goroutine.
	stop <-chan struct{}
	// onListen, when non-nil, receives the bound metrics address once
	// the HTTP server is up (tests listen on :0 and need the port).
	onListen func(addr string)
}

func main() {
	var o options
	flag.IntVar(&o.pp, "pp", 50, "policy parameter Pp in [1,100] for both knobs")
	flag.Float64Var(&o.maxDuty, "max-duty", 50, "maximum PWM duty, percent")
	flag.DurationVar(&o.duration, "duration", 10*time.Minute, "simulated run time")
	flag.StringVar(&o.fan, "fan", "dynamic", "fan control: dynamic, static, constant or auto (chip firmware)")
	flag.StringVar(&o.dvfs, "dvfs", "tdvfs", "DVFS daemon: none, tdvfs or cpuspeed")
	flag.StringVar(&o.sleep, "sleep", "none", "sleep-state control: none, or ctlarray to drive C-states through the thermal control array")
	flag.StringVar(&o.ipmiAddr, "ipmi", "", "optional TCP address to serve the node's BMC on")
	flag.StringVar(&o.listen, "listen", "", "optional HTTP address for /metrics and /debug/pprof")
	flag.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	flag.DurationVar(&o.every, "report", 15*time.Second, "reporting interval")
	flag.BoolVar(&o.verbose, "verbose", false, "print the controller's internal status with each report")
	flag.Float64Var(&o.pace, "pace", 0, "simulated seconds per wall second (0 = run flat out); use e.g. 10 when driving the BMC interactively with ipmitool")
	flag.StringVar(&o.cfgPath, "config", "", "JSON configuration file; overrides -pp/-max-duty")
	flag.StringVar(&o.scenario, "scenario", "", "JSON scenario file; its control section overrides the technique and tuning flags")
	flag.StringVar(&o.faults, "faults", "", "JSON fault plan replayed against this node's devices (resilience drill)")
	flag.StringVar(&o.trace, "trace", "", "record the node's series to this binary trace file (inspect with thermtrace)")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "thermctld:", err)
		os.Exit(1)
	}
}

// spec resolves the daemon's control specification from the flags and
// the optional config / scenario files.
func spec(o options) (config.ControlSpec, error) {
	cfg := config.Default()
	cfg.Pp = o.pp
	cfg.MaxFanDuty = o.maxDuty
	if o.cfgPath != "" {
		loaded, err := config.Load(o.cfgPath)
		if err != nil {
			return config.ControlSpec{}, err
		}
		cfg = loaded
	}
	if err := cfg.Validate(); err != nil {
		return config.ControlSpec{}, err
	}
	cs := config.ControlSpec{Fan: o.fan, DVFS: o.dvfs, Sleep: o.sleep, Tuning: cfg}
	if o.scenario != "" {
		s, err := config.LoadScenario(o.scenario)
		if err != nil {
			return config.ControlSpec{}, err
		}
		cs = s.Control
	}
	// Reuse the scenario validation for the technique names; the
	// single-node daemon ignores the topology fields.
	probe := config.Scenario{Nodes: 1, Control: cs}
	probe.Normalize()
	if err := probe.Validate(); err != nil {
		return config.ControlSpec{}, err
	}
	return probe.Control, nil
}

// run assembles the simulated stack and executes the control loop. All
// metric registration happens here, before the first step — the
// metricsafe analyzer holds the module to that split.
func run(o options, out io.Writer) error {
	cs, err := spec(o)
	if err != nil {
		return err
	}

	n, err := thermctl.NewNode("thermctld", o.seed)
	if err != nil {
		return err
	}
	n.Settle(0)

	// Optional fault plan: replayed by a plane stepped in lockstep with
	// the control loop, exactly like the cluster's serial fault phase.
	var plane *faults.Plane
	if o.faults != "" {
		plan, err := faults.LoadPlan(o.faults)
		if err != nil {
			return err
		}
		for _, sch := range plan.Schedules {
			if sch.Target != n.Name {
				return fmt.Errorf("fault plan %q targets %q; this daemon's node is %q",
					plan.Name, sch.Target, n.Name)
			}
		}
		plane, err = faults.NewPlane(plan)
		if err != nil {
			return err
		}
		n.AttachFaults(plane.Injector(n.Name), rng.New(rng.Mix(o.seed, faultStream)))
	}

	// Every actuator write runs under the bounded-retry policy, so a
	// transient bus fault is absorbed before the controller counts an
	// error; persistent failure still escalates to fail-safe. The nil
	// sleep hook keeps OnStep off the wall clock.
	retrier := faults.NewRetrier(faults.DefaultRetryPolicy(),
		rng.New(rng.Mix(o.seed, retryStream)), nil)

	// Wire the whole stack to one registry: controllers, device models,
	// BMC, and the daemon's own loop timing. The scenario layer builds
	// (and instruments) the controller set — the same wiring clustersim
	// and the experiment harness use.
	reg := metrics.NewRegistry()
	nc, err := cs.BuildNode(n, config.NodeOptions{Retrier: retrier, Registry: reg})
	if err != nil {
		return err
	}
	n.Fan.InstrumentMetrics(reg)
	n.Chip.InstrumentMetrics(reg)
	n.BMC.InstrumentMetrics(reg)
	retrier.InstrumentMetrics(reg)
	if plane != nil {
		plane.InstrumentMetrics(reg)
	}
	stepSeconds := reg.NewHistogram("thermctl_daemon_step_seconds",
		"wall-clock latency of one daemon control-loop step", nil)
	steps := reg.NewCounter("thermctl_daemon_steps_total",
		"daemon control-loop steps executed")

	// Optional binary trace of the run, one cluster sample frame per
	// control step. The schema matches a one-node cluster trace, so the
	// same thermtrace invocations work on daemon and clustersim output.
	var tw *tracefile.Writer
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if tw, err = tracefile.NewWriter(f, config.ClusterTraceSchema(1), nil); err != nil {
			return err
		}
	}
	closeTrace := func() error {
		if tw == nil {
			return nil
		}
		if err := tw.Close(); err != nil {
			return fmt.Errorf("writing trace %s: %w", o.trace, err)
		}
		fmt.Fprintf(out, "trace: %s; inspect with `go run ./cmd/thermtrace info %s`\n", o.trace, o.trace)
		return nil
	}

	if o.listen != "" {
		srv, err := metrics.Serve(o.listen, reg)
		if err != nil {
			return err
		}
		// Drain in-flight scrapes on exit rather than cutting them off.
		defer func() {
			if err := srv.ShutdownTimeout(2 * time.Second); err != nil {
				fmt.Fprintln(out, "thermctld: metrics shutdown:", err)
			}
		}()
		fmt.Fprintf(out, "thermctld: metrics and pprof on http://%s/metrics\n", srv.Addr())
		if o.onListen != nil {
			o.onListen(srv.Addr())
		}
	}

	if o.ipmiAddr != "" {
		srv, err := ipmi.ListenAndServe(o.ipmiAddr, n.BMC)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "thermctld: BMC serving IPMI on %s\n", srv.Addr())
	}

	tune := cs.Tuning
	n.SetGenerator(thermctl.CPUBurn(o.seed + 1))
	fmt.Fprintf(out, "thermctld: fan=%s dvfs=%s sleep=%s, Pp=%d, max duty %.0f%%, threshold %.0f degC, %s\n",
		cs.Fan, cs.DVFS, cs.Sleep, tune.Pp, tune.MaxFanDuty, tune.ThresholdC, o.duration)
	fmt.Fprintf(out, "%8s %10s %8s %9s %8s %10s\n",
		"time", "temp degC", "duty %", "freq GHz", "dvfs", "power W")

	dt := 250 * time.Millisecond
	next := time.Duration(0)
	frame := make([]float64, cluster.FrameWidth)
	for n.Elapsed() < o.duration {
		if o.stop != nil {
			select {
			case <-o.stop:
				fmt.Fprintf(out, "\nstopped at %s\n", n.Elapsed().Truncate(time.Second))
				return closeTrace()
			default:
			}
		}
		if o.pace > 0 {
			time.Sleep(time.Duration(float64(dt) / o.pace))
		}
		begin := metrics.Now()
		n.Step(dt)
		if plane != nil {
			plane.OnStep(n.Elapsed())
		}
		for _, ctl := range nc.Controllers {
			ctl.OnStep(n.Elapsed())
		}
		stepSeconds.ObserveSince(begin)
		steps.Inc()
		now := n.Elapsed()
		due := now >= next
		if tw != nil || due {
			cluster.SampleNode(n, frame)
		}
		if tw != nil {
			tw.AppendFrame(now, frame)
		}
		if due {
			next += o.every
			engaged := "-"
			if nc.TDVFS != nil {
				engaged = "idle"
				if nc.TDVFS.Engaged() {
					engaged = "engaged"
				}
			}
			fmt.Fprintf(out, "%8s %10.2f %8.1f %9.1f %8s %10.1f\n",
				now.Truncate(time.Second), frame[cluster.FrameTemp], frame[cluster.FrameDuty],
				frame[cluster.FrameFreq], engaged, frame[cluster.FramePower])
			if o.verbose {
				switch {
				case nc.Fan != nil:
					fmt.Fprintf(out, "          %s\n", nc.Fan.Status())
				case nc.Sleep != nil:
					fmt.Fprintf(out, "          %s\n", nc.Sleep.Status())
				}
			}
		}
	}
	if err := closeTrace(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfinal: die %.2f degC, duty %.1f%%, %.1f GHz; avg power %.2f W; %d freq transitions\n",
		n.TrueDieC(), n.Fan.Duty(), n.CPU.FreqGHz(), n.Meter.AverageW(), n.CPU.Transitions())
	if cs.Sleep == "ctlarray" {
		ctl, slot := nc.Sleep, 0
		if ctl == nil && nc.Fan != nil {
			ctl, slot = nc.Fan, 1 // second binding on the dynamic controller
		}
		if ctl != nil {
			fmt.Fprintf(out, "sleep-state array: mode C%d, %d moves\n",
				ctl.Policy().Mode(slot), ctl.Binding().Moves(slot))
		}
	}
	if plane != nil {
		fmt.Fprintf(out, "fault timeline:\n%s", plane.Timeline())
		// The hybrid's aggregated surface covers both lanes; other
		// configurations report per-controller.
		if h := nc.Hybrid; h != nil {
			var fanEdges, dvfsEdges int
			for _, ev := range h.FailSafeEvents() {
				switch ev.Lane {
				case "fan":
					fanEdges++
				case "dvfs":
					dvfsEdges++
				}
			}
			fmt.Fprintf(out, "controller errors: %d; fail-safe: fan %d, dvfs %d edges\n",
				h.Errors(), fanEdges, dvfsEdges)
		} else {
			var errs uint64
			var edges int
			if nc.Fan != nil {
				errs += nc.Fan.Errors()
				edges += len(nc.Fan.FailSafeEvents())
			}
			if nc.TDVFS != nil {
				errs += nc.TDVFS.Errors()
				edges += len(nc.TDVFS.FailSafeEvents())
			}
			if nc.Sleep != nil {
				errs += nc.Sleep.Errors()
				edges += len(nc.Sleep.FailSafeEvents())
			}
			fmt.Fprintf(out, "controller errors: %d; fail-safe: %d edges\n", errs, edges)
		}
	}
	return nil
}
