package baseline

import (
	"math"
	"testing"
	"time"

	"thermctl/internal/core"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

func pidRig(t *testing.T) (*node.Node, *core.Binding) {
	t.Helper()
	n := newTestNode(t)
	n.Settle(0)
	p, err := NewPIDFan(core.SysfsTemp(n.FS, n.Hwmon.TempInput),
		core.NewSysfsFanPort(n.FS, n.Hwmon))
	if err != nil {
		t.Fatal(err)
	}
	return n, p
}

func TestPIDValidation(t *testing.T) {
	n := newTestNode(t)
	read := core.SysfsTemp(n.FS, n.Hwmon.TempInput)
	port := core.NewSysfsFanPort(n.FS, n.Hwmon)
	if _, err := NewPIDFan(nil, port); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := NewPIDFan(read, nil); err == nil {
		t.Error("nil port accepted")
	}
}

func TestPIDRegulatesToSetpoint(t *testing.T) {
	n, p := pidRig(t)
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 2400; i++ { // 10 minutes
		n.Step(dt)
		p.OnStep(n.Elapsed())
	}
	if got := n.TrueDieC(); math.Abs(got-50) > 1.5 {
		t.Errorf("PID settled at %.2f °C, setpoint 50", got)
	}
	if p.Errors() != 0 {
		t.Errorf("errors: %d", p.Errors())
	}
}

// TestPIDDecideAllocationFree is the PID baseline's hot-path budget:
// once warm, one sample period of its binding — one temperature read, one
// PID decision and one duty write — allocates nothing.
func TestPIDDecideAllocationFree(t *testing.T) {
	n, p := pidRig(t)
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 400; i++ {
		n.Step(dt)
		p.OnStep(n.Elapsed())
	}
	now := n.Elapsed()
	moves := p.Moves(0)
	decide := func() {
		now += pidPeriod
		p.OnStep(now)
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
		t.Errorf("one PID decision allocates %v, want 0", allocs)
	}
	if p.Moves(0) == moves {
		t.Error("no duty written during the measured decisions")
	}
}

func TestPIDIdlesLowBelowSetpoint(t *testing.T) {
	n, p := pidRig(t)
	n.SetGenerator(workload.Constant(0.03))
	dt := 250 * time.Millisecond
	for i := 0; i < 1200; i++ {
		n.Step(dt)
		p.OnStep(n.Elapsed())
	}
	// An idle die sits well below the setpoint: the loop must rest at
	// the minimum duty, not wind up.
	if d := n.Fan.Duty(); d > 5 {
		t.Errorf("idle duty = %.1f%%, want near MinDuty", d)
	}
}

func TestPIDAntiWindupRecovers(t *testing.T) {
	// Saturate low for a long idle period, then slam the load: with
	// anti-windup the loop must respond within seconds, not after
	// unwinding minutes of accumulated negative integral.
	n, p := pidRig(t)
	n.SetGenerator(workload.Step{Before: 0.03, After: 1.0, At: 5 * time.Minute})
	dt := 250 * time.Millisecond
	var dutyAtOnset float64
	for i := 0; i < 1560; i++ { // 6.5 minutes
		n.Step(dt)
		p.OnStep(n.Elapsed())
		if n.Elapsed() == 5*time.Minute {
			dutyAtOnset = n.Fan.Duty()
		}
	}
	// 90 s after onset the fan must be clearly engaged.
	if d := n.Fan.Duty(); d < dutyAtOnset+15 {
		t.Errorf("duty only %.1f%% 90 s after load onset (was %.1f%%) — integral windup", d, dutyAtOnset)
	}
}

// TestPIDChurnsOnJitterWherePaperControllerHolds is the ablation's
// point: a PID loop reacts to every wiggle of a jittery workload while
// the paper's two-level window cancels it. The cancellation works for
// oscillation periods within the level-one window span (1 s here) —
// both half-periods land in one round and the half-sums cancel exactly,
// which is what the paper means by choosing the window size to nullify
// jitter.
func TestPIDChurnsOnJitterWherePaperControllerHolds(t *testing.T) {
	jitterLoad := workload.Jitter{Low: 0.2, High: 0.9, Period: time.Second}

	dutySwing := func(attach func(n *node.Node) func(time.Duration)) float64 {
		n := newTestNode(t)
		n.Settle(0.55)
		step := attach(n)
		n.SetGenerator(jitterLoad)
		dt := 250 * time.Millisecond
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 2400; i++ {
			n.Step(dt)
			step(n.Elapsed())
			if n.Elapsed() > 4*time.Minute { // past warm-up
				if d := n.Fan.Duty(); d < lo {
					lo = d
				}
				if d := n.Fan.Duty(); d > hi {
					hi = d
				}
			}
		}
		return hi - lo
	}

	pidSwing := dutySwing(func(n *node.Node) func(time.Duration) {
		p, err := NewPIDFan(core.SysfsTemp(n.FS, n.Hwmon.TempInput),
			core.NewSysfsFanPort(n.FS, n.Hwmon))
		if err != nil {
			t.Fatal(err)
		}
		return p.OnStep
	})
	paperSwing := dutySwing(func(n *node.Node) func(time.Duration) {
		c, err := core.NewController(core.DefaultConfig(50),
			core.SysfsTemp(n.FS, n.Hwmon.TempInput),
			core.NewFanActuator(core.NewSysfsFanPort(n.FS, n.Hwmon), 100))
		if err != nil {
			t.Fatal(err)
		}
		return c.Binding().OnStep
	})
	if paperSwing >= pidSwing {
		t.Errorf("window controller duty swing %.1f not below PID's %.1f under jitter",
			paperSwing, pidSwing)
	}
}
