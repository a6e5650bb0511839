package thermctl

import (
	"testing"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/workload"
)

// The root-package tests exercise the public facade end to end, the way
// a downstream user would.

func TestQuickstartFlow(t *testing.T) {
	n, err := NewNode("n0", 1)
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	ctl, err := NewDynamicFanControl(n, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(CPUBurn(2))
	for i := 0; i < 1200; i++ {
		n.Step(250 * time.Millisecond)
		ctl.OnStep(n.Elapsed())
	}
	if n.TrueDieC() > 58 {
		t.Errorf("controlled cpu-burn die = %.1f °C, want < 58", n.TrueDieC())
	}
	if n.Fan.Duty() < 20 {
		t.Errorf("fan duty = %.0f%%, controller never engaged", n.Fan.Duty())
	}
}

func TestUnifiedControllerOnWeakFan(t *testing.T) {
	n, err := NewNode("n1", 3)
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	u, err := NewUnified(n, 50, 25) // weak fan: DVFS must engage
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(CPUBurn(4))
	for i := 0; i < 2400; i++ {
		n.Step(250 * time.Millisecond)
		u.OnStep(n.Elapsed())
	}
	if !u.DVFS.Engaged() {
		t.Error("unified controller never engaged DVFS despite the 25% fan cap")
	}
	if n.TrueDieC() > 58 {
		t.Errorf("die = %.1f °C, not stabilized", n.TrueDieC())
	}
}

func TestClusterProgramRun(t *testing.T) {
	c, err := NewCluster(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(0)
	res := c.RunProgram(BTB4(), 0)
	if res.TimedOut {
		t.Fatal("BT.B.4 timed out")
	}
	got := res.ExecTime.Seconds()
	if got < 210 || got > 230 {
		t.Errorf("BT.B.4 at nominal frequency ran %.1f s, want ≈219", got)
	}
}

func TestBaselinesConstruct(t *testing.T) {
	n, err := NewNode("n2", 9)
	if err != nil {
		t.Fatal(err)
	}
	// The baselines are scenario techniques: static fan plus CPUSPEED.
	cs := config.ControlSpec{Fan: "static", DVFS: "cpuspeed", Sleep: "none", Tuning: config.Default()}
	nc, err := cs.BuildNode(n, config.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nc.Controllers) != 2 {
		t.Errorf("static fan + CPUSPEED built %d controllers, want 2", len(nc.Controllers))
	}
	if _, err := NewTDVFS(n, 50); err != nil {
		t.Error(err)
	}
}

func TestPolicyBounds(t *testing.T) {
	if PpMin != 1 || PpMax != 100 {
		t.Errorf("policy bounds %d..%d, want 1..100", PpMin, PpMax)
	}
	n, _ := NewNode("n3", 11)
	if _, err := NewDynamicFanControl(n, 0, 100); err == nil {
		t.Error("Pp=0 accepted")
	}
	if _, err := NewDynamicFanControl(n, 101, 100); err == nil {
		t.Error("Pp=101 accepted")
	}
}

func TestProgramAccessors(t *testing.T) {
	p := BTB4()
	if p.Name != "BT.B.4" || len(p.Iters) != 200 {
		t.Errorf("BTB4: %s with %d iterations", p.Name, len(p.Iters))
	}
	if LUB4().Name != "LU.B.4" {
		t.Error("LUB4 name")
	}
}

func TestNewNodeWithConfig(t *testing.T) {
	cfg := DefaultNodeConfig("custom", 77)
	cfg.AmbientOffsetC = 4
	cfg.InitialDuty = 30
	n, err := NewNodeWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "custom" {
		t.Errorf("name %q", n.Name)
	}
	base, err := NewNode("base", 77)
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	base.Settle(0)
	if d := n.TrueDieC() - base.TrueDieC(); d < 2 {
		t.Errorf("ambient offset moved idle temp by only %.1f °C", d)
	}
}

func TestNodePowerBreakdown(t *testing.T) {
	n, err := NewNode("pb", 81)
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(1)
	b := n.Power()
	if b.Base <= 0 || b.CPU <= 0 || b.Fan < 0 {
		t.Errorf("breakdown: %+v", b)
	}
	if b.Total() != b.Base+b.CPU+b.Fan {
		t.Error("Total not the sum of parts")
	}
	if b.Total() < 90 || b.Total() > 130 {
		t.Errorf("busy total %.1f W outside plausible range", b.Total())
	}
}

func TestVersionAndSeed(t *testing.T) {
	if Version == "" {
		t.Error("empty Version")
	}
	if ExperimentSeed == 0 {
		t.Error("zero ExperimentSeed")
	}
}

// TestSleepStateControl: the public sleep-state constructor builds a
// standalone control array whose one binding drives the cstates
// actuator, and that array walks the C-state table under a bursty load.
func TestSleepStateControl(t *testing.T) {
	n, err := NewNode("n4", 13)
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	ctl, err := NewSleepStateControl(n, 50)
	if err != nil {
		t.Fatal(err)
	}
	b := ctl.Binding()
	if b.Slots() != 1 || b.Actuator(0).Name() != "cstates" {
		t.Fatalf("binding drives %d slots (first %q), want the cstates actuator alone",
			b.Slots(), b.Actuator(0).Name())
	}
	// Full-power bursts alternating with near-idle halves.
	n.SetGenerator(workload.Jitter{Low: 0.1, High: 1.0, Period: 4 * time.Second})
	for i := 0; i < 2400; i++ {
		n.Step(250 * time.Millisecond)
		ctl.OnStep(n.Elapsed())
	}
	if ctl.Moves(0) == 0 {
		t.Error("sleep-state array never moved under bursty load")
	}
	if _, err := NewSleepStateControl(n, 0); err == nil {
		t.Error("Pp=0 accepted")
	}
}
