package config

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"thermctl/internal/core"
	"thermctl/internal/node"
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
	s, err := ReadScenario(strings.NewReader(in))
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
	if _, err := ReadScenario(strings.NewReader(`{"nodez": 4}`)); err == nil {
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
		if nc.Hybrid == nil || nc.Fan == nil || nc.TDVFS == nil || nc.Sleep != nil {
			t.Errorf("default wiring = %+v, want hybrid over fan+tdvfs", nc)
		}
		if len(nc.Controllers) != 1 {
			t.Errorf("controllers = %d, want 1 (the hybrid)", len(nc.Controllers))
		}
	}
}

// TestBuildNodeLanes walks every fan × dvfs × sleep combination:
// Lanes names each binding BuildNode created, always in the order fan,
// dvfs, sleep, and each entry is the very binding the controllers step.
func TestBuildNodeLanes(t *testing.T) {
	for _, fan := range []string{"dynamic", "static", "constant", "auto"} {
		for _, dvfs := range []string{"none", "tdvfs", "cpuspeed"} {
			for _, sleep := range []string{"none", "ctlarray"} {
				name := fan + "/" + dvfs + "/" + sleep
				n, err := node.New(node.DefaultConfig("n0", 1))
				if err != nil {
					t.Fatal(err)
				}
				cs := ControlSpec{Fan: fan, DVFS: dvfs, Sleep: sleep, Tuning: Default()}
				nc, err := cs.BuildNode(n, NodeOptions{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}

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

				// Every lane is a binding some attached controller steps.
				stepped := map[*core.Binding]bool{}
				for _, ctl := range nc.Controllers {
					switch c := ctl.(type) {
					case *core.Hybrid:
						stepped[c.Fan.Binding()] = true
						stepped[c.DVFS.Binding()] = true
					case interface{ Binding() *core.Binding }:
						stepped[c.Binding()] = true
					default:
						t.Errorf("%s: controller %T exposes no binding", name, ctl)
					}
				}
				if len(stepped) != len(nc.Lanes) {
					t.Errorf("%s: controllers step %d bindings, lanes list %d", name, len(stepped), len(nc.Lanes))
				}
				for _, l := range nc.Lanes {
					if !stepped[l.Binding] {
						t.Errorf("%s: lane %q binding is not stepped by any controller", name, l.Name)
					}
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
			}
		}
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
	if nc.Sleep == nil || nc.Fan != nil || nc.Hybrid != nil {
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
	if got := rig.Cluster.Workers(); got != 2 {
		t.Errorf("workers = %d after clamp, want 2", got)
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
		return res.ExecTime.Seconds(), n.Meter.AverageW(), rig.Nodes[0].Hybrid.Engine().Errors()
	}
	t1, w1, e1 := run()
	t2, w2, e2 := run()
	if t1 != t2 || w1 != w2 || e1 != e2 {
		t.Errorf("same scenario, different runs: %v/%v/%v vs %v/%v/%v", t1, w1, e1, t2, w2, e2)
	}
}
