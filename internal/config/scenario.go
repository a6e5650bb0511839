package config

// This file is the declarative scenario layer: one JSON document
// describing a whole control-plane deployment — node topology, the
// control techniques per node (fan method, DVFS daemon, sleep-state
// array), the policy parameter and tuning, an optional generated fault
// campaign, and metrics labeling — consumed by thermctld, clustersim
// and the experiments driver alike. Before it existed each cmd/ binary
// re-implemented the same per-node wiring loop from flags; Build and
// ControlSpec.BuildNode are that loop, written once.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"thermctl/internal/baseline"
	"thermctl/internal/cluster"
	"thermctl/internal/core"
	"thermctl/internal/cstates"
	"thermctl/internal/faults"
	"thermctl/internal/metrics"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

// ControlSpec selects the control techniques for one node class.
type ControlSpec struct {
	// Fan selects the out-of-band technique: dynamic (the paper's
	// unified controller), static (Figure 1 map), constant, or auto
	// (chip firmware curve, no software controller). Default dynamic.
	Fan string `json:"fan"`
	// DVFS selects the in-band daemon: none, tdvfs, or cpuspeed.
	// Default tdvfs.
	DVFS string `json:"dvfs"`
	// Sleep selects the processor sleep-state technique: none, or
	// ctlarray to drive cstates.Actuator through the same thermal
	// control array as the other actuators — on the dynamic fan
	// controller when one exists (one array per technique, one window,
	// one Pp, the paper's §3.2.2 shape), as a standalone ctlarray
	// controller otherwise. Default none.
	Sleep string `json:"sleep"`
	// Tuning carries the numeric knobs (Pp, duty cap, thresholds,
	// sampling); zero fields take the documented defaults.
	Tuning Config `json:"tuning"`
}

// ChaosSpec requests a generated fault campaign.
type ChaosSpec struct {
	// Seed generates the campaign (0 = no faults).
	Seed uint64 `json:"seed,omitempty"`
	// HorizonMS bounds the generated campaign in simulated
	// milliseconds. Zero derives a default at build time: 1.5× the
	// program's ideal execution time when the scenario runs a program,
	// 60000 otherwise. A non-zero value is honored as written, program
	// or not.
	HorizonMS int `json:"horizon_ms,omitempty"`
}

// MetricsSpec requests an instrumented run.
type MetricsSpec struct {
	// Enabled builds a registry and instruments every controller and
	// the cluster substrate.
	Enabled bool `json:"enabled,omitempty"`
	// Labels are constant labels stamped on every controller series,
	// in addition to the per-node node="..." label.
	Labels map[string]string `json:"labels,omitempty"`
}

// Scenario is the serialized deployment description.
type Scenario struct {
	// Name labels the scenario in logs.
	Name string `json:"name,omitempty"`
	// Nodes is the cluster size. Default 4. With Groups it is derived
	// (the sum of the group sizes) and must not be set explicitly.
	Nodes int `json:"nodes,omitempty"`
	// Seed seeds the simulation. Default 20100131.
	Seed uint64 `json:"seed"`
	// Workers is the stepping worker-pool size; 0 picks GOMAXPROCS at
	// build time, and a value above Nodes is clamped to Nodes by the
	// cluster's SetWorkers (a worker per node is the useful maximum —
	// not an error). Results are identical for any value.
	Workers int `json:"workers,omitempty"`
	// Program is the SPMD program to execute: bt, lu, or empty for
	// generator-driven runs (driven by Workload when set, otherwise the
	// caller attaches its own generators).
	Program string `json:"program,omitempty"`
	// Workload is the declarative open-loop workload: one spec,
	// instantiated per node with an independent seeded stream (see
	// workload.Spec.Build). Mutually exclusive with Program. Build
	// returns the per-node generators in Rig.Generators; run them with
	// Cluster.RunGenerators.
	Workload *workload.Spec `json:"workload,omitempty"`
	// Groups partitions the fleet into named node groups with
	// heterogeneous hardware and optional per-group workloads, laid out
	// contiguously in declaration order. When set, Nodes is derived as
	// the sum of the group sizes.
	Groups []GroupSpec `json:"groups,omitempty"`
	// Control selects the per-node techniques.
	Control ControlSpec `json:"control"`
	// Chaos optionally replays a generated fault campaign.
	Chaos ChaosSpec `json:"chaos,omitempty"`
	// Metrics optionally instruments the run.
	Metrics MetricsSpec `json:"metrics,omitempty"`
}

// DefaultScenario is the paper's standard 4-node unified-control run.
func DefaultScenario() Scenario {
	return Scenario{
		Nodes:   4,
		Seed:    20100131,
		Program: "bt",
		Control: ControlSpec{Fan: "dynamic", DVFS: "tdvfs", Sleep: "none", Tuning: Default()},
	}
}

// Normalize fills zero fields with the defaults.
func (s *Scenario) Normalize() {
	if len(s.Groups) > 0 && s.Nodes == 0 {
		for i := range s.Groups {
			s.Nodes += s.Groups[i].Nodes
		}
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.Seed == 0 {
		s.Seed = 20100131
	}
	if s.Control.Fan == "" {
		s.Control.Fan = "dynamic"
	}
	if s.Control.DVFS == "" {
		s.Control.DVFS = "tdvfs"
	}
	if s.Control.Sleep == "" {
		s.Control.Sleep = "none"
	}
	// The chaos horizon defaults here only for generator-driven
	// scenarios; with a program the default derives from the program's
	// ideal time at build, and filling it now would shadow that (and a
	// filled value must win — see Build).
	if s.Chaos.Seed != 0 && s.Chaos.HorizonMS == 0 && s.Program == "" {
		s.Chaos.HorizonMS = 60000
	}
	s.Control.Tuning.Normalize()
}

// Validate reports the first invalid field, mirroring the flag
// validation the daemons used to do by hand.
func (s *Scenario) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("config: nodes %d: cluster needs at least one node", s.Nodes)
	}
	switch s.Program {
	case "", "bt", "lu":
	default:
		return fmt.Errorf("config: program %q: unknown program (want bt or lu)", s.Program)
	}
	if s.Program != "" && s.Workload != nil {
		return fmt.Errorf("config: program %q and a workload spec are mutually exclusive", s.Program)
	}
	if s.Workload != nil {
		if err := s.Workload.Validate(); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	if len(s.Groups) > 0 {
		sum := 0
		seen := make(map[string]bool, len(s.Groups))
		for i := range s.Groups {
			g := &s.Groups[i]
			if g.Name == "" {
				return fmt.Errorf("config: groups[%d]: missing name", i)
			}
			if seen[g.Name] {
				return fmt.Errorf("config: group %q declared twice", g.Name)
			}
			seen[g.Name] = true
			if g.Nodes < 1 {
				return fmt.Errorf("config: group %q: nodes %d: needs at least one node", g.Name, g.Nodes)
			}
			if err := g.Hardware.validate(); err != nil {
				return fmt.Errorf("config: group %q: %w", g.Name, err)
			}
			if g.Workload != nil {
				if s.Program != "" {
					return fmt.Errorf("config: group %q: per-group workloads and program %q are mutually exclusive", g.Name, s.Program)
				}
				if err := g.Workload.Validate(); err != nil {
					return fmt.Errorf("config: group %q: %w", g.Name, err)
				}
			}
			sum += g.Nodes
		}
		if s.Nodes != sum {
			return fmt.Errorf("config: nodes %d conflicts with the group sizes (sum %d); omit nodes when declaring groups", s.Nodes, sum)
		}
	}
	switch s.Control.Fan {
	case "dynamic", "static", "constant", "auto":
	default:
		return fmt.Errorf("config: fan %q: unknown fan method (want dynamic, static, constant or auto)", s.Control.Fan)
	}
	switch s.Control.DVFS {
	case "none", "tdvfs", "cpuspeed":
	default:
		return fmt.Errorf("config: dvfs %q: unknown DVFS daemon (want none, tdvfs or cpuspeed)", s.Control.DVFS)
	}
	switch s.Control.Sleep {
	case "none", "ctlarray":
	default:
		return fmt.Errorf("config: sleep %q: unknown sleep-state control (want none or ctlarray)", s.Control.Sleep)
	}
	if s.Workers < 0 {
		return fmt.Errorf("config: workers %d: must be >= 0 (0 means GOMAXPROCS)", s.Workers)
	}
	if s.Chaos.HorizonMS < 0 {
		return fmt.Errorf("config: chaos horizon_ms %d: must be >= 0 (0 derives a default)", s.Chaos.HorizonMS)
	}
	if s.Chaos.Seed != 0 && s.Control.Fan == "auto" && s.Control.DVFS == "none" && s.Control.Sleep == "none" {
		return fmt.Errorf("config: chaos seed %d: chaos needs a software controller to exercise", s.Chaos.Seed)
	}
	return s.Control.Tuning.Validate()
}

// ReadScenario parses, normalizes and validates a JSON scenario. With
// no scenario directory to resolve against, "extends" is refused; use
// ReadScenarioDir or LoadScenario for composed scenarios.
func ReadScenario(r io.Reader) (Scenario, error) {
	return ReadScenarioDir(r, "")
}

// LoadScenario reads a scenario file, resolving any "extends" chain
// against the file's own directory.
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return ReadScenarioDir(f, filepath.Dir(path))
}

// NodeOptions adjusts BuildNode for the caller's environment.
type NodeOptions struct {
	// Retrier, when non-nil, wraps every actuator write in the bounded
	// retry policy (thermctld's resilience posture).
	Retrier *faults.Retrier
	// Registry, when non-nil, instruments the controllers at wiring
	// time with the given constant labels.
	Registry *metrics.Registry
	Labels   []metrics.Label
}

// Lane is one control lane of a node: a decision law bound to its
// actuators, named by the technique it drives.
type Lane struct {
	// Name is "fan" (dynamic, static or constant fan), "dvfs" (tDVFS
	// or CPUSPEED) or "sleep" (the standalone sleep-state array).
	Name    string
	Binding *core.Binding
}

// NodeControl is the per-node controller set a ControlSpec builds. The
// Controllers slice is what the caller attaches (in order); Lanes is
// what reports walk; the typed fields expose technique-specific state.
type NodeControl struct {
	// Controllers in attachment order.
	Controllers []cluster.Controller
	// Lanes holds every binding BuildNode created, always in the order
	// fan, dvfs, sleep, whatever order the controllers step in (the
	// hybrid steps dvfs first). A sleep actuator hosted on the dynamic
	// fan controller is a slot of the fan lane, not a lane of its own.
	Lanes []Lane
	// Fan is the dynamic ctlarray controller (nil for other methods).
	// When Sleep is ctlarray and Fan is dynamic, the sleep actuator is
	// a second binding on this controller.
	Fan *core.Controller
	// Hybrid couples Fan and TDVFS when both are selected.
	Hybrid *core.Hybrid
	// TDVFS is the in-band daemon (nil unless dvfs=tdvfs).
	TDVFS *core.TDVFS
	// Sleep is the standalone sleep-state ctlarray controller, built
	// only when Sleep is ctlarray and no dynamic fan controller hosts
	// the actuator.
	Sleep *core.Controller
}

// BuildNode wires one node's controllers from the spec. It is the only
// constructor of a controller stack: thermctld, clustersim, the
// experiment harness, the public facade and every scenario build go
// through it.
func (cs ControlSpec) BuildNode(n *node.Node, opt NodeOptions) (*NodeControl, error) {
	out := &NodeControl{}
	read := core.SysfsTemp(n.FS, n.Hwmon.TempInput)
	fanPort := &core.SysfsFanPort{FS: n.FS, Chip: n.Hwmon}
	var freqPort core.FreqPort = &core.SysfsFreqPort{FS: n.FS, Paths: n.Cpufreq}
	if opt.Retrier != nil {
		freqPort = &core.RetryFreqPort{Port: freqPort, R: opt.Retrier}
	}
	wrap := func(a core.Actuator) core.Actuator {
		if opt.Retrier == nil {
			return a
		}
		return &core.RetryActuator{Inner: a, R: opt.Retrier}
	}
	tune := cs.Tuning
	tune.Normalize()

	// Dynamic fan controller first: it may also host the sleep-state
	// array, and it is consumed by the hybrid when tDVFS is selected.
	var fanCtl *core.Controller
	switch cs.Fan {
	case "dynamic":
		bindings := []core.ActuatorBinding{{
			Actuator: wrap(core.NewFanActuator(fanPort, tune.MaxFanDuty)),
		}}
		if cs.Sleep == "ctlarray" {
			bindings = append(bindings, core.ActuatorBinding{
				Actuator: wrap(cstates.NewActuator(n.FS, n.CStates)),
			})
		}
		ctl, err := core.NewController(tune.ControllerConfig(), read, bindings...)
		if err != nil {
			return nil, err
		}
		fanCtl = ctl
		out.Fan = ctl
		out.Lanes = append(out.Lanes, Lane{"fan", ctl.Binding()})
	case "static":
		s, err := baseline.NewStaticFan(baseline.DefaultStaticFanConfig(tune.MaxFanDuty), read, fanPort)
		if err != nil {
			return nil, err
		}
		out.Controllers = append(out.Controllers, s)
		out.Lanes = append(out.Lanes, Lane{"fan", s.Binding()})
	case "constant":
		cf := baseline.NewConstantFan(tune.MaxFanDuty, fanPort)
		out.Controllers = append(out.Controllers, cf)
		out.Lanes = append(out.Lanes, Lane{"fan", cf.Binding()})
	case "auto":
		// chip firmware curve; nothing to attach
	}

	switch cs.DVFS {
	case "tdvfs":
		act, err := core.NewDVFSActuator(freqPort)
		if err != nil {
			return nil, err
		}
		d, err := core.NewTDVFS(tune.TDVFSConfig(), read, act)
		if err != nil {
			return nil, err
		}
		out.TDVFS = d
		out.Lanes = append(out.Lanes, Lane{"dvfs", d.Binding()})
		if fanCtl != nil {
			h := core.NewHybrid(fanCtl, d)
			if opt.Registry != nil {
				h.InstrumentMetrics(opt.Registry, opt.Labels...)
			}
			out.Hybrid = h
			out.Controllers = append(out.Controllers, h)
			fanCtl = nil
		} else {
			if opt.Registry != nil {
				d.InstrumentMetrics(opt.Registry, opt.Labels...)
			}
			out.Controllers = append(out.Controllers, d)
		}
	case "cpuspeed":
		csd, err := baseline.NewCPUSpeed(baseline.DefaultCPUSpeedConfig(), n.FS, freqPort)
		if err != nil {
			return nil, err
		}
		out.Controllers = append(out.Controllers, csd)
		out.Lanes = append(out.Lanes, Lane{"dvfs", csd.Binding()})
	case "none":
	}
	if fanCtl != nil {
		if opt.Registry != nil {
			fanCtl.InstrumentMetrics(opt.Registry, opt.Labels...)
		}
		out.Controllers = append(out.Controllers, fanCtl)
	}

	// Standalone sleep-state array when no dynamic fan controller
	// hosts the actuator: the same decision law over the cstates mode
	// set alone, proving the array is technique-agnostic.
	if cs.Sleep == "ctlarray" && out.Fan == nil {
		ctl, err := core.NewController(tune.ControllerConfig(), read,
			core.ActuatorBinding{Actuator: wrap(cstates.NewActuator(n.FS, n.CStates))})
		if err != nil {
			return nil, err
		}
		if opt.Registry != nil {
			ctl.InstrumentMetrics(opt.Registry, opt.Labels...)
		}
		out.Sleep = ctl
		out.Controllers = append(out.Controllers, ctl)
		out.Lanes = append(out.Lanes, Lane{"sleep", ctl.Binding()})
	}
	return out, nil
}

// Rig is a built scenario: the cluster with every controller attached,
// plus handles to the pieces the caller reports on.
type Rig struct {
	Scenario Scenario
	Cluster  *cluster.Cluster
	// Program is the SPMD program named by the scenario (nil when the
	// scenario is generator-driven).
	Program *workload.Program
	// Registry is non-nil when the scenario enables metrics.
	Registry *metrics.Registry
	// Plane replays the generated fault campaign (nil without chaos).
	Plane *faults.Plane
	// ChaosHorizon is the effective fault-campaign bound handed to
	// faults.Generate: the scenario's explicit horizon_ms, or the
	// derived default (zero without chaos).
	ChaosHorizon time.Duration
	// Nodes holds the per-node controller sets, index-aligned with
	// Cluster.Nodes.
	Nodes []*NodeControl
	// Generators holds the per-node workload instances built from the
	// scenario's workload plane, index-aligned with Cluster.Nodes (nil
	// when the scenario runs a program or declares no workload). Run
	// with Cluster.RunGenerators.
	Generators []workload.Generator
	// Groups locates each declared node group inside Cluster.Nodes
	// (nil for ungrouped scenarios).
	Groups []BuiltGroup
}

// Build assembles the scenario: cluster, settle, fault campaign,
// per-node control, metrics. The caller runs the program (or its own
// loop) and reports.
func (s Scenario) Build() (*Rig, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rig := &Rig{Scenario: s}

	switch s.Program {
	case "bt":
		p := workload.BTB4()
		rig.Program = &p
	case "lu":
		p := workload.LUB4()
		rig.Program = &p
	}

	cfgs, groups := s.nodeConfigs()
	rig.Groups = groups
	c, err := cluster.NewFromConfigs(cfgs, cluster.DefaultDt)
	if err != nil {
		return nil, err
	}
	if rig.Program == nil {
		gens, err := s.buildGenerators()
		if err != nil {
			return nil, err
		}
		rig.Generators = gens
	}
	c.Settle(0)
	rig.Cluster = c

	if s.Metrics.Enabled {
		rig.Registry = metrics.NewRegistry()
		c.InstrumentMetrics(rig.Registry)
	}

	if s.Chaos.Seed != 0 {
		names := make([]string, len(c.Nodes))
		for i, n := range c.Nodes {
			names[i] = n.Name
		}
		// An explicit horizon_ms wins; only a zero field derives the
		// default from the program's ideal execution time. (It used to
		// be discarded whenever a program was set.)
		horizon := time.Duration(s.Chaos.HorizonMS) * time.Millisecond
		if horizon <= 0 && rig.Program != nil {
			horizon = time.Duration(1.5 * rig.Program.IdealSeconds(2.4) * float64(time.Second))
		}
		rig.ChaosHorizon = horizon
		plan := faults.Generate(s.Chaos.Seed, names, horizon)
		plane, err := c.ApplyFaults(plan, s.Seed)
		if err != nil {
			return nil, err
		}
		if rig.Registry != nil {
			plane.InstrumentMetrics(rig.Registry)
		}
		rig.Plane = plane
	}

	if rig.Nodes, err = AttachControl(c, s.Control, rig.Registry, s.Metrics.Labels); err != nil {
		return nil, err
	}
	// The worker pool starts last, so no error path above leaks it.
	workers := s.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c.SetWorkers(workers)
	return rig, nil
}

// AttachControl builds every node's controller stack from cs and
// attaches it to the cluster's node-local phase, in node order. It is
// the last step of Build; a run that must act between building its
// cluster and wiring control (a hand-written fault plan that belongs in
// the pre-controller phase, a custom node set) builds without control
// and calls it itself. With reg non-nil each node's controllers are
// instrumented under node="<name>" plus the constant labels. The result
// is index-aligned with c.Nodes.
func AttachControl(c *cluster.Cluster, cs ControlSpec, reg *metrics.Registry, labels map[string]string) ([]*NodeControl, error) {
	// Constant labels in sorted key order: metric identity must not
	// depend on map iteration order.
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*NodeControl, 0, len(c.Nodes))
	for i, n := range c.Nodes {
		opt := NodeOptions{Registry: reg}
		if reg != nil {
			opt.Labels = append(opt.Labels, metrics.L("node", n.Name))
			for _, k := range keys {
				opt.Labels = append(opt.Labels, metrics.L(k, labels[k]))
			}
		}
		nc, err := cs.BuildNode(n, opt)
		if err != nil {
			return nil, err
		}
		// BuildNode's controllers observe and actuate only their own
		// node, so they join the sharded node-local phase.
		for _, ctl := range nc.Controllers {
			c.AddNodeController(i, ctl)
		}
		out = append(out, nc)
	}
	return out, nil
}
