package core

import (
	"slices"
	"testing"
	"time"

	"thermctl/internal/metrics"
	"thermctl/internal/workload"
)

// countPolicy counts its decisions.
type countPolicy struct{ n int }

func (p *countPolicy) Name() string   { return "count" }
func (p *countPolicy) Decide(tx *Txn) { p.n++ }

func TestLaneHookRunsOnlyOnItsRounds(t *testing.T) {
	const dt = 50 * time.Millisecond
	eng := NewEngine(nil)
	var hooks [3][]time.Duration
	periods := []time.Duration{250 * time.Millisecond, 100 * time.Millisecond, 0}
	for i, p := range periods {
		b, err := NewBinding(BindingConfig{Policy: &countPolicy{}, SamplePeriod: p})
		if err != nil {
			t.Fatal(err)
		}
		eng.Attach(b, func(now time.Duration) { hooks[i] = append(hooks[i], now) })
	}
	if got := eng.NextDue(); got != 0 {
		t.Fatalf("engine with a period-0 lane due at %v, want 0", got)
	}
	for k := 1; k <= 40; k++ {
		eng.OnStep(time.Duration(k) * dt)
	}
	for i, p := range periods {
		var want []time.Duration
		for k := 1; k <= 40; k++ {
			if now := time.Duration(k) * dt; p == 0 || now%p == 0 {
				want = append(want, now)
			}
		}
		if !slices.Equal(hooks[i], want) {
			t.Errorf("lane %d (period %v): hook ran at %v, want its rounds %v", i, p, hooks[i], want)
		}
		if n := eng.lanes[i].b.pol.(*countPolicy).n; n != len(want) {
			t.Errorf("lane %d decided %d times, want %d", i, n, len(want))
		}
	}

	gated := NewEngine(nil)
	for _, p := range periods[:2] {
		b, err := NewBinding(BindingConfig{Policy: &countPolicy{}, SamplePeriod: p})
		if err != nil {
			t.Fatal(err)
		}
		gated.Attach(b, nil)
	}
	if got := gated.NextDue(); got != 100*time.Millisecond {
		t.Fatalf("engine NextDue = %v before any step, want the earliest lane's 100ms", got)
	}
	gated.OnStep(100 * time.Millisecond)
	if got := gated.NextDue(); got != 200*time.Millisecond {
		t.Fatalf("engine NextDue = %v after the 100ms round, want 200ms", got)
	}
}

func TestHybridHoldCounterCountsFanRounds(t *testing.T) {
	n, h := newHybridRig(t, 50, 30) // weak fan cap so DVFS engages
	reg := metrics.NewRegistry()
	h.InstrumentMetrics(reg)
	n.SetGenerator(workload.NewCPUBurn(nil))
	// Step the plant at 50 ms, five steps per 250 ms control round.
	const dt = 50 * time.Millisecond
	var heldRounds, engagedSteps int
	for n.Elapsed() < 12*time.Minute {
		n.Step(dt)
		now := n.Elapsed()
		fanDue := h.Fan.Binding().NextDue() <= now
		hold := h.Fan.Policy().HoldFloor()
		h.OnStep(now)
		if h.DVFS.Engaged() {
			engagedSteps++
			if fanDue {
				heldRounds++
			}
		}
		// The floor follows engagement on fan rounds and holds between.
		if fanDue {
			hold = h.DVFS.Engaged()
		}
		if got := h.Fan.Policy().HoldFloor(); got != hold {
			t.Fatalf("t=%v: hold floor %v, want %v (fan due %v)", now, got, hold, fanDue)
		}
	}
	if heldRounds == 0 {
		t.Fatal("DVFS never engaged; the counter is untested")
	}
	got := snapValue(t, reg, "thermctl_hybrid_hold_rounds_total")
	if got != float64(heldRounds) {
		t.Fatalf("hold counter = %v, want %d fan rounds with the floor held (%d engaged steps)", got, heldRounds, engagedSteps)
	}
	if heldRounds >= engagedSteps {
		t.Fatalf("%d held rounds over %d engaged steps: the counter counts steps", heldRounds, engagedSteps)
	}
}
