package config

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/core"
	"thermctl/internal/faults"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	in := `{
		"name": "rt",
		"nodes": 3,
		"seed": 7,
		"program": "lu",
		"control": {
			"fan": "dynamic", "dvfs": "tdvfs", "sleep": "ctlarray",
			"tuning": {"pp": 25, "max_fan_duty": 80}
		},
		"chaos": {"seed": 9},
		"metrics": {"enabled": true, "labels": {"rack": "r1"}}
	}`
	s, err := ReadScenarioDir(strings.NewReader(in), "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 3 || s.Seed != 7 || s.Program != "lu" {
		t.Errorf("topology = %d/%d/%s", s.Nodes, s.Seed, s.Program)
	}
	if s.Control.Sleep != "ctlarray" || s.Control.Tuning.Pp != 25 {
		t.Errorf("control = %+v", s.Control)
	}
	// With a program set, a zero horizon stays zero: Build derives the
	// default from the program's ideal time (Normalize filling 60000
	// here would shadow that derivation).
	if s.Chaos.HorizonMS != 0 {
		t.Errorf("chaos horizon filled despite program: %d", s.Chaos.HorizonMS)
	}
	if !s.Metrics.Enabled || s.Metrics.Labels["rack"] != "r1" {
		t.Errorf("metrics = %+v", s.Metrics)
	}
}

func TestScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ReadScenarioDir(strings.NewReader(`{"nodez": 4}`), ""); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"bad fan", func(s *Scenario) { s.Control.Fan = "turbo" }, "fan"},
		{"bad dvfs", func(s *Scenario) { s.Control.DVFS = "ondemand" }, "dvfs"},
		{"bad sleep", func(s *Scenario) { s.Control.Sleep = "deep" }, "sleep"},
		{"bad program", func(s *Scenario) { s.Program = "ep" }, "program"},
		{"negative workers", func(s *Scenario) { s.Workers = -1 }, "workers"},
		{"negative chaos horizon", func(s *Scenario) { s.Chaos = ChaosSpec{Seed: 3, HorizonMS: -1} }, "horizon_ms"},
		{"bad pp", func(s *Scenario) { s.Control.Tuning.Pp = 200 }, "pp"},
		{"chaos without control", func(s *Scenario) {
			s.Control = ControlSpec{Fan: "auto", DVFS: "none", Sleep: "none", Tuning: Default()}
			s.Chaos.Seed = 3
		}, "chaos"},
	}
	for _, tc := range cases {
		s := DefaultScenario()
		s.Normalize()
		tc.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestScenarioRejectsBadMetricLabels: label names the registry would
// panic on, and the per-node label's own name, are refused when the
// spec is read, before Build can see them.
func TestScenarioRejectsBadMetricLabels(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"bad-name", "invalid label name"},
		{"", "empty label name"},
		{"0rack", "invalid label name"},
		{"node", "reserved"},
	} {
		spec := fmt.Sprintf(`{"nodes": 2, "program": "bt", "metrics": {"enabled": true, "labels": {%q: "x"}}}`, tc.name)
		_, err := ReadScenarioDir(strings.NewReader(spec), "")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("label %q: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// overflowingMS are scenarios whose one millisecond field is longer
// than a time.Duration holds. Each used to wrap silently: the bt
// horizon fell back to the derived one, the generator horizon went
// negative, and the trace's 2^58 ms spacing became 0 ns.
var overflowingMS = map[string]string{
	"horizon with program":    `{"nodes": 1, "program": "bt", "chaos": {"seed": 3, "horizon_ms": 9300000000000}}`,
	"horizon without program": `{"nodes": 1, "chaos": {"seed": 3, "horizon_ms": 9300000000000}}`,
	"trace period":            `{"nodes": 1, "workload": {"kind": "trace", "samples": [0.2, 0.9], "period_ms": 288230376151711744}}`,
	"sequence for_ms": `{"nodes": 1, "workload": {"kind": "sequence", "segments": [
		{"kind": "constant", "util": 0.5, "for_ms": 9300000000000}, {"kind": "cpuburn"}]}}`,
	"field the kind ignores": `{"nodes": 1, "workload": {"kind": "constant", "util": 0.5, "decay_ms": 9300000000000}}`,
	"fan time constant":      `{"groups": [{"name": "a", "nodes": 1, "hardware": {"fan_time_const_ms": 9300000000000}}]}`,
}

// TestScenarioRejectsOverflowingMS: a millisecond field past
// workload.MaxMS is refused when the scenario is read, while MaxMS
// itself is accepted.
func TestScenarioRejectsOverflowingMS(t *testing.T) {
	for name, spec := range overflowingMS {
		_, err := ReadScenarioDir(strings.NewReader(spec), "")
		if err == nil || !strings.Contains(err.Error(), "_ms") {
			t.Errorf("%s: err = %v, want one naming the _ms field", name, err)
		}
	}
	spec := fmt.Sprintf(`{"nodes": 1, "chaos": {"seed": 3, "horizon_ms": %d}}`, workload.MaxMS)
	s, err := ReadScenarioDir(strings.NewReader(spec), "")
	if err != nil {
		t.Fatalf("horizon_ms = MaxMS refused: %v", err)
	}
	if h := time.Duration(s.Chaos.HorizonMS) * time.Millisecond; h <= 0 {
		t.Errorf("horizon_ms = MaxMS converts to %v", h)
	}
}

// TestScenarioBuildDefault builds the paper's standard run and checks
// the rig shape: a hybrid per node, the program resolved, no plane.
func TestScenarioBuildDefault(t *testing.T) {
	s := DefaultScenario()
	s.Nodes = 2
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rig.Program == nil || rig.Plane != nil || rig.Registry != nil {
		t.Fatalf("rig = program %v plane %v registry %v", rig.Program, rig.Plane, rig.Registry)
	}
	if len(rig.Nodes) != 2 {
		t.Fatalf("node controls = %d, want 2", len(rig.Nodes))
	}
	for _, nc := range rig.Nodes {
		if nc.Fan == nil || nc.TDVFS == nil || nc.Sleep != nil {
			t.Errorf("default wiring = %+v, want hybrid over fan+tdvfs", nc)
		}
		if len(nc.Controllers) != 1 {
			t.Errorf("controllers = %d, want 1 (the node's engine)", len(nc.Controllers))
		}
	}
}

// TestBuildNodeLanes walks every fan × dvfs × sleep combination:
// Lanes names each binding BuildNode created, always in the order fan,
// dvfs, sleep; Controllers is the node's one engine, or nil without
// lanes; and stepping that engine is exact against stepping the same
// lanes one by one as standalone bindings, each reading the sensor
// itself, in the order they stepped as separate controllers — through
// two minutes of cpu-burn with a sensor-dropout spell.
func TestBuildNodeLanes(t *testing.T) {
	for _, fan := range []string{"dynamic", "static", "constant", "auto"} {
		for _, dvfs := range []string{"none", "tdvfs", "cpuspeed"} {
			for _, sleep := range []string{"none", "ctlarray"} {
				name := fan + "/" + dvfs + "/" + sleep
				cs := ControlSpec{Fan: fan, DVFS: dvfs, Sleep: sleep, Tuning: Default()}
				n, nc, plane := buildDropoutNode(t, cs)

				var want []string
				if fan != "auto" {
					want = append(want, "fan")
				}
				if dvfs != "none" {
					want = append(want, "dvfs")
				}
				if sleep == "ctlarray" && fan != "dynamic" {
					want = append(want, "sleep")
				}
				var got []string
				lane := map[string]*core.Binding{}
				for _, l := range nc.Lanes {
					got = append(got, l.Name)
					lane[l.Name] = l.Binding
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: lanes %v, want %v", name, got, want)
				}
				if len(want) == 0 && nc.Controllers != nil {
					t.Errorf("%s: a lane-less node has controllers %v, want nil", name, nc.Controllers)
				}
				if len(want) > 0 && (len(nc.Controllers) != 1 || nc.Controllers[0] != cluster.Controller(nc.Engine)) {
					t.Errorf("%s: controllers %v, want [Engine]", name, nc.Controllers)
				}
				if nc.Fan != nil && lane["fan"] != nc.Fan.Binding() {
					t.Errorf("%s: fan lane is not Fan.Binding()", name)
				}
				if nc.TDVFS != nil && lane["dvfs"] != nc.TDVFS.Binding() {
					t.Errorf("%s: dvfs lane is not TDVFS.Binding()", name)
				}
				if nc.Sleep != nil && lane["sleep"] != nc.Sleep.Binding() {
					t.Errorf("%s: sleep lane is not Sleep.Binding()", name)
				}
				checkEngineMatchesStandalone(t, name, cs, n, nc, plane)
			}
		}
	}
}

// buildDropoutNode builds a settled node under cpu-burn, the spec's
// control stack on it, and the fault plane that drops its sensor out
// from 40 s to 60 s.
func buildDropoutNode(t *testing.T, cs ControlSpec) (*node.Node, *NodeControl, *faults.Plane) {
	t.Helper()
	n, err := node.New(node.DefaultConfig("n0", 1))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	plane, err := faults.NewPlane(faults.Plan{Name: "dropout", Schedules: []faults.Schedule{{
		Target: n.Name,
		Episodes: []faults.Episode{{Kind: faults.SensorDropout,
			Start: faults.Dur(40 * time.Second), Duration: faults.Dur(20 * time.Second)}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	n.AttachFaults(plane.Injector(n.Name), rng.New(3))
	n.SetGenerator(workload.NewCPUBurn(rng.New(5)))
	nc, err := cs.BuildNode(n, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return n, nc, plane
}

// checkEngineMatchesStandalone steps nc's engine on n and, on a twin
// node with its own plane, the same spec's lanes as standalone bindings in the order they
// stepped as separate controllers: a static or constant fan, the dvfs
// lane, a dynamic fan (behind the hold-floor hook when tDVFS runs),
// then the sleep array. Frames must match bit for bit at every step,
// and each lane's moves, errors and fail-safe log at the end.
func checkEngineMatchesStandalone(t *testing.T, name string, cs ControlSpec, n *node.Node, nc *NodeControl, plane *faults.Plane) {
	t.Helper()
	twin, alone, twinPlane := buildDropoutNode(t, cs)
	lane := map[string]*core.Binding{}
	for _, l := range alone.Lanes {
		lane[l.Name] = l.Binding
	}
	var order []*core.Binding
	if cs.Fan == "static" || cs.Fan == "constant" {
		order = append(order, lane["fan"])
	}
	if b := lane["dvfs"]; b != nil {
		order = append(order, b)
	}
	if cs.Fan == "dynamic" {
		order = append(order, lane["fan"])
	}
	if b := lane["sleep"]; b != nil {
		order = append(order, b)
	}
	var hold func(time.Duration)
	if alone.Fan != nil && alone.TDVFS != nil {
		hold = core.HoldFloorHook(alone.Fan.Policy(), alone.TDVFS.Policy(), nil)
	}

	got, want := make([]float64, cluster.FrameWidth), make([]float64, cluster.FrameWidth)
	for n.Elapsed() < 2*time.Minute {
		n.Step(cluster.DefaultDt)
		twin.Step(cluster.DefaultDt)
		now := n.Elapsed()
		plane.OnStep(now)
		twinPlane.OnStep(now)
		nc.OnStep(now)
		for _, b := range order {
			if hold != nil && b == lane["fan"] && b.NextDue() <= now {
				hold(now)
			}
			b.OnStep(now)
		}
		cluster.SampleNode(n, got)
		cluster.SampleNode(twin, want)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("%s: t=%v %s = %v on the engine, %v stepped lane by lane",
					name, now, cluster.FrameFields[k].Name, got[k], want[k])
				return
			}
		}
	}
	var errs uint64
	for i, l := range nc.Lanes {
		a, b := l.Binding, alone.Lanes[i].Binding
		for s := 0; s < a.Slots(); s++ {
			if a.Moves(s) != b.Moves(s) {
				t.Errorf("%s: %s slot %d moves %d, standalone %d", name, l.Name, s, a.Moves(s), b.Moves(s))
			}
		}
		if a.Errors() != b.Errors() {
			t.Errorf("%s: %s errors %d, standalone %d", name, l.Name, a.Errors(), b.Errors())
		}
		if !slices.Equal(a.FailSafeEvents(), b.FailSafeEvents()) {
			t.Errorf("%s: %s fail-safe log %v, standalone %v", name, l.Name, a.FailSafeEvents(), b.FailSafeEvents())
		}
		errs += a.Errors()
	}
	if samples := cs.Fan == "dynamic" || cs.Fan == "static" || cs.DVFS == "tdvfs" || cs.Sleep == "ctlarray"; samples && errs == 0 {
		t.Errorf("%s: no lane counted an error; the dropout did not bite", name)
	}
}

// TestScenarioBuildSleepOnFan: sleep=ctlarray with a dynamic fan hosts
// the C-state actuator as the second binding of the fan's array — and a
// full generator-driven cluster run completes with the array engaged.
func TestScenarioBuildSleepOnFan(t *testing.T) {
	s := DefaultScenario()
	s.Nodes = 2
	s.Program = ""
	s.Control.Sleep = "ctlarray"
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	nc := rig.Nodes[0]
	if nc.Fan == nil || nc.Sleep != nil {
		t.Fatalf("wiring = %+v, want the sleep actuator on the fan controller", nc)
	}
	b := nc.Fan.Binding()
	if b.Slots() != 2 {
		t.Fatalf("fan binding slots = %d, want fan+cstates", b.Slots())
	}
	if got := b.Actuator(1).Name(); got != "cstates" {
		t.Fatalf("second actuator = %q, want cstates", got)
	}

	rig.Cluster.RunGenerator(workload.Constant(0.95), 120*time.Second)
	if mode := nc.Fan.Policy().Mode(1); mode == 0 {
		t.Error("C-state array never left C0 under sustained near-full load")
	}
	if b.Moves(1) == 0 {
		t.Error("no sleep-state moves recorded")
	}
}

// TestScenarioBuildStandaloneSleep: with no dynamic fan controller the
// sleep-state array runs as its own ctlarray controller.
func TestScenarioBuildStandaloneSleep(t *testing.T) {
	s := DefaultScenario()
	s.Nodes = 1
	s.Program = ""
	s.Control = ControlSpec{Fan: "auto", DVFS: "none", Sleep: "ctlarray", Tuning: Default()}
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	nc := rig.Nodes[0]
	if nc.Sleep == nil || nc.Fan != nil || nc.TDVFS != nil {
		t.Fatalf("wiring = %+v, want a standalone sleep controller", nc)
	}
	if got := nc.Sleep.Binding().Actuator(0).Name(); got != "cstates" {
		t.Fatalf("actuator = %q, want cstates", got)
	}
	rig.Cluster.RunGenerator(workload.Constant(0.9), 60*time.Second)
	if nc.Sleep.Binding().Moves(0) == 0 {
		t.Error("standalone sleep array never moved")
	}
}

// TestScenarioBuildChaosAndMetrics: chaos builds a plane, metrics build
// a registry, and controller series carry node plus constant labels.
func TestScenarioBuildChaosAndMetrics(t *testing.T) {
	s := DefaultScenario()
	s.Nodes = 2
	s.Program = ""
	s.Chaos = ChaosSpec{Seed: 11, HorizonMS: 30000}
	s.Metrics = MetricsSpec{Enabled: true, Labels: map[string]string{"rack": "r9"}}
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rig.Plane == nil || rig.Registry == nil {
		t.Fatalf("plane %v registry %v, want both", rig.Plane, rig.Registry)
	}
	var sb strings.Builder
	if err := rig.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`thermctl_controller_rounds_total{node="node0",rack="r9"}`,
		`thermctl_controller_rounds_total{node="node1",rack="r9"}`,
		`thermctl_tdvfs_rounds_total{node="node0",rack="r9"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestScenarioWorkersMessageAndClamp: the workers error names the real
// constraint (0 is valid and means GOMAXPROCS), and a value above the
// node count is clamped by the cluster, not rejected.
func TestScenarioWorkersMessageAndClamp(t *testing.T) {
	s := DefaultScenario()
	s.Normalize()
	s.Workers = -1
	err := s.Validate()
	if err == nil {
		t.Fatal("workers -1 accepted")
	}
	if strings.Contains(err.Error(), "at least one worker") {
		t.Errorf("error %q still claims one worker is the minimum; 0 is valid", err)
	}
	if !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("error %q does not explain that 0 means GOMAXPROCS", err)
	}

	s = DefaultScenario()
	s.Nodes = 2
	s.Workers = 64 // more workers than nodes: clamped, never an error
	rig, err := s.Build()
	if err != nil {
		t.Fatalf("workers > nodes rejected: %v", err)
	}
	// Two nodes are below the cluster's fan-out threshold, so the clamp
	// lands on inline stepping.
	if got := rig.Cluster.Workers(); got != 1 {
		t.Errorf("workers = %d after clamp, want 1", got)
	}
}

// TestScenarioChaosHorizonExplicit: an explicit chaos.horizon_ms must
// bound the generated campaign even when a program is set — it used to
// be silently replaced by 1.5× the program's ideal time.
func TestScenarioChaosHorizonExplicit(t *testing.T) {
	s := DefaultScenario()
	s.Nodes = 2
	s.Program = "bt"
	s.Chaos = ChaosSpec{Seed: 11, HorizonMS: 4200}
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := 4200 * time.Millisecond
	if rig.ChaosHorizon != want {
		t.Fatalf("chaos horizon = %s, want the explicit %s", rig.ChaosHorizon, want)
	}
	for _, sch := range rig.Plane.Plan().Schedules {
		for _, ep := range sch.Episodes {
			if end := time.Duration(ep.Start) + time.Duration(ep.Duration); end > want {
				t.Errorf("episode %s+%s extends past the explicit horizon %s",
					time.Duration(ep.Start), time.Duration(ep.Duration), want)
			}
		}
	}
}

// TestRigRun: a generator-driven rig runs for its chaos horizon when
// the scenario sets one and for the caller's fallback otherwise.
func TestRigRun(t *testing.T) {
	for _, tc := range []struct {
		chaos ChaosSpec
		want  time.Duration
	}{
		{ChaosSpec{}, 3 * time.Second},
		{ChaosSpec{Seed: 11, HorizonMS: 2000}, 2 * time.Second},
	} {
		s := DefaultScenario()
		s.Nodes = 1
		s.Program = ""
		s.Workload = &workload.Spec{Kind: "constant", Util: 0.5}
		s.Chaos = tc.chaos
		rig, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := rig.Run(3 * time.Second)
		if res.Err != nil || res.ExecTime != tc.want {
			t.Errorf("chaos %+v: ran %s (err %v), want %s", tc.chaos, res.ExecTime, res.Err, tc.want)
		}
	}
}

// TestScenarioChaosHorizonDerived: with a program and a zero horizon,
// Build derives 1.5× the program's ideal time as before.
func TestScenarioChaosHorizonDerived(t *testing.T) {
	s := DefaultScenario()
	s.Nodes = 2
	s.Program = "bt"
	s.Chaos = ChaosSpec{Seed: 11}
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(1.5 * rig.Program.IdealSeconds(2.4) * float64(time.Second))
	if rig.ChaosHorizon != want {
		t.Fatalf("derived chaos horizon = %s, want 1.5×ideal = %s", rig.ChaosHorizon, want)
	}
	// And generator-driven scenarios keep the documented 60 s default.
	s.Program = ""
	s.Chaos = ChaosSpec{Seed: 11}
	rig, err = s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rig.ChaosHorizon != 60*time.Second {
		t.Fatalf("generator chaos horizon = %s, want 60s", rig.ChaosHorizon)
	}
}

// TestScenarioBuildMatchesHandWiring: the built default run must be
// step-for-step identical to the pre-scenario hand wiring (the hybrid
// path the goldens pin); spot-check by running the program and
// comparing the end state across two independent builds.
func TestScenarioBuildDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full BT runs")
	}
	run := func() (float64, float64, uint64) {
		s := DefaultScenario()
		s.Nodes = 2
		rig, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := rig.Cluster.RunProgram(*rig.Program, 0)
		n := rig.Cluster.Nodes[0]
		return res.ExecTime.Seconds(), n.Meter.AverageW(), rig.Nodes[0].Fan.Binding().Errors() + rig.Nodes[0].TDVFS.Binding().Errors()
	}
	t1, w1, e1 := run()
	t2, w2, e2 := run()
	if t1 != t2 || w1 != w2 || e1 != e2 {
		t.Errorf("same scenario, different runs: %v/%v/%v vs %v/%v/%v", t1, w1, e1, t2, w2, e2)
	}
}
