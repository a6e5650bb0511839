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
//	          [-scenario run.json] [-listen 127.0.0.1:9090]
//	          [-faults plan.json] [-trace run.tct]
//
// A scenario file (-scenario) overrides the technique and tuning flags:
// its control section selects the techniques and the tuning for this
// daemon exactly as it does for clustersim and the experiment harness —
// one document, three consumers. Tuning beyond -pp and -max-duty goes
// in control.tuning (see internal/config):
//
//	{"control": {"fan": "dynamic", "dvfs": "tdvfs",
//	  "tuning": {"pp": 25, "max_fan_duty": 60, "threshold_c": 55}}}
//
// The daemon runs one node, so the scenario's topology fields (nodes,
// workers, program, chaos) are ignored here.
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
// The final report then lists the controller errors and each control
// lane's fail-safe edges ("fail-safe: fan 2, dvfs 2 edges"). A fuller
// drill ships as examples/faults/thermctld-drill.json.
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
	"strings"
	"sync"
	"time"

	"thermctl"
	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/faults"
	"thermctl/internal/ipmi"
	"thermctl/internal/metrics"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/tracefile"
)

// retryStream is the rng stream index of the daemon's retry-jitter
// draws, next to the cluster's fault stream (0xfa170000 + node index)
// and disjoint from the node model's own streams (which are derived
// from the seed with small indices).
const retryStream = 0xfa170001

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
	scenario string
	fan      string
	dvfs     string
	sleep    string
	faults   string
	trace    string

	// stop, when non-nil, ends the run early from another goroutine.
	//
	//thermlint:allow deadcode -- test seam: the daemon tests stop a run early through it
	stop <-chan struct{}
	// onListen, when non-nil, receives the bound metrics address once
	// the HTTP server is up (tests listen on :0 and need the port).
	//
	//thermlint:allow deadcode -- test seam: the daemon tests learn the bound address through it
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
// the optional scenario file.
func spec(o options) (config.ControlSpec, error) {
	cfg := config.Default()
	cfg.Pp = o.pp
	cfg.MaxFanDuty = o.maxDuty
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
	dt := 250 * time.Millisecond
	c, err := cluster.NewWithNodes([]*node.Node{n}, dt)
	if err != nil {
		return err
	}

	// Optional fault plan: replayed by the cluster's fault plane in the
	// serial phase before the controllers, so every schedule must
	// target this node, "thermctld".
	var plane *faults.Plane
	if o.faults != "" {
		plan, err := faults.LoadPlan(o.faults)
		if err != nil {
			return err
		}
		if plane, err = c.ApplyFaults(plan, o.seed); err != nil {
			return err
		}
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
	for _, ctl := range nc.Controllers {
		c.AddNodeController(0, ctl)
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

	// The loop goroutine owns the node; the IPMI server's connections
	// reach its BMC only under owner, which the loop holds around each
	// step and releases between steps (and through -pace sleeps).
	var owner sync.Mutex
	closeIPMI := func() {}
	if o.ipmiAddr != "" {
		srv, err := ipmi.ListenAndServe(o.ipmiAddr, n.BMC, &owner)
		if err != nil {
			return err
		}
		closeIPMI = func() { _ = srv.Close() }
		defer closeIPMI()
		fmt.Fprintf(out, "thermctld: BMC serving IPMI on %s\n", srv.Addr())
	}

	tune := cs.Tuning
	n.SetGenerator(thermctl.CPUBurn(o.seed + 1))
	fmt.Fprintf(out, "thermctld: fan=%s dvfs=%s sleep=%s, Pp=%d, max duty %.0f%%, threshold %.0f degC, %s\n",
		cs.Fan, cs.DVFS, cs.Sleep, tune.Pp, tune.MaxFanDuty, tune.ThresholdC, o.duration)
	fmt.Fprintf(out, "%8s %10s %8s %9s %8s %10s\n",
		"time", "temp degC", "duty %", "freq GHz", "dvfs", "power W")

	// One sampler feeds the trace (every step) and the periodic report;
	// without a trace it samples only at the report cadence.
	pr := &probe{tw: tw, every: o.every}
	every := o.every
	if tw != nil || every <= 0 {
		every = dt
	}
	if err := c.Sample(every, pr.sample); err != nil {
		return err
	}

	for c.Clock.Now() < o.duration {
		if o.stop != nil {
			select {
			case <-o.stop:
				fmt.Fprintf(out, "\nstopped at %s\n", c.Clock.Now().Truncate(time.Second))
				return closeTrace()
			default:
			}
		}
		if o.pace > 0 {
			time.Sleep(time.Duration(float64(dt) / o.pace))
		}
		begin := metrics.Now()
		owner.Lock()
		c.Step()
		owner.Unlock()
		stepSeconds.ObserveSince(begin)
		steps.Inc()
		if !pr.due {
			continue
		}
		pr.due = false
		engaged := "-"
		if nc.TDVFS != nil {
			engaged = "idle"
			if nc.TDVFS.Engaged() {
				engaged = "engaged"
			}
		}
		fmt.Fprintf(out, "%8s %10.2f %8.1f %9.1f %8s %10.1f\n",
			c.Clock.Now().Truncate(time.Second), pr.frame[cluster.FrameTemp], pr.frame[cluster.FrameDuty],
			pr.frame[cluster.FrameFreq], engaged, pr.frame[cluster.FramePower])
		if o.verbose {
			switch {
			case nc.Fan != nil:
				fmt.Fprintf(out, "          %s\n", nc.Fan.Status())
			case nc.Sleep != nil:
				fmt.Fprintf(out, "          %s\n", nc.Sleep.Status())
			}
		}
	}
	// No out-of-band request may touch the node while the final
	// report reads it.
	closeIPMI()
	if err := closeTrace(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfinal: die %.2f degC, duty %.1f%%, %.1f GHz; avg power %.2f W; %d freq transitions\n",
		n.TrueDieC(), n.Fan.Duty(), n.CPU.FreqGHz(), n.Meter.AverageW(), n.CPU.Transitions())
	if mode, moves, ok := nc.SleepState(); ok {
		fmt.Fprintf(out, "sleep-state array: mode C%d, %d moves\n", mode, moves)
	}
	if plane != nil {
		fmt.Fprintf(out, "fault timeline:\n%s", plane.Timeline())
		var errs uint64
		var edges []string
		for _, l := range nc.Lanes {
			errs += l.Binding.Errors()
			edges = append(edges, fmt.Sprintf("%s %d", l.Name, len(l.Binding.FailSafeEvents())))
		}
		fs := "no controller lanes"
		if len(edges) > 0 {
			fs = strings.Join(edges, ", ") + " edges"
		}
		fmt.Fprintf(out, "controller errors: %d; fail-safe: %s\n", errs, fs)
	}
	return nil
}

// probe is the daemon's cluster sink: it appends every frame to the
// trace and keeps the frame of each report instant, which run prints
// between steps, outside the step loop's allocation budget.
type probe struct {
	tw          *tracefile.Writer
	every, next time.Duration
	due         bool
	frame       [cluster.FrameWidth]float64
}

func (p *probe) sample(now time.Duration, frame []float64) {
	if p.tw != nil {
		p.tw.AppendFrame(now, frame)
	}
	if now < p.next {
		return
	}
	p.next += p.every
	p.due = true
	copy(p.frame[:], frame)
}
