package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"thermctl/internal/rng"
)

func TestConstantClamped(t *testing.T) {
	if Constant(1.5).Utilization(0) != 1 {
		t.Error("Constant above 1 not clamped")
	}
	if Constant(-0.5).Utilization(0) != 0 {
		t.Error("Constant below 0 not clamped")
	}
	if Constant(0.5).Utilization(time.Hour) != 0.5 {
		t.Error("Constant not constant")
	}
}

func TestCPUBurnNearFull(t *testing.T) {
	b := NewCPUBurn(rng.New(1))
	for i := 0; i < 1000; i++ {
		u := b.Utilization(time.Duration(i) * time.Second)
		if u < 0.95 || u > 1.0 {
			t.Fatalf("cpu-burn utilization %v outside [0.95, 1]", u)
		}
	}
	exact := NewCPUBurn(nil)
	if exact.Utilization(0) != 1 {
		t.Error("noiseless cpu-burn should be exactly 1")
	}
}

func TestStepSwitchesAtTime(t *testing.T) {
	s := Step{Before: 0.1, After: 0.9, At: 10 * time.Second}
	if s.Utilization(9*time.Second) != 0.1 {
		t.Error("before switch")
	}
	if s.Utilization(10*time.Second) != 0.9 {
		t.Error("at switch instant")
	}
	if s.Utilization(time.Hour) != 0.9 {
		t.Error("long after switch")
	}
}

func TestRampInterpolates(t *testing.T) {
	r := Ramp{From: 0.2, To: 0.8, Start: 10 * time.Second, Over: 60 * time.Second}
	if got := r.Utilization(10 * time.Second); got != 0.2 {
		t.Errorf("at start = %v, want 0.2", got)
	}
	if got := r.Utilization(40 * time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("at midpoint = %v, want 0.5", got)
	}
	if got := r.Utilization(70 * time.Second); got != 0.8 {
		t.Errorf("at end = %v, want 0.8", got)
	}
	if got := r.Utilization(time.Hour); got != 0.8 {
		t.Errorf("after end = %v, want to hold 0.8", got)
	}
	if got := r.Utilization(0); got != 0.2 {
		t.Errorf("before start = %v, want 0.2", got)
	}
}

func TestRampZeroDuration(t *testing.T) {
	r := Ramp{From: 0.2, To: 0.8, Start: 10 * time.Second, Over: 0}
	if r.Utilization(5*time.Second) != 0.2 || r.Utilization(15*time.Second) != 0.8 {
		t.Error("zero-duration ramp should behave as a step")
	}
}

func TestJitterAlternates(t *testing.T) {
	j := Jitter{Low: 0.2, High: 0.9, Period: 4 * time.Second}
	if j.Utilization(1*time.Second) != 0.9 {
		t.Error("first half should be High")
	}
	if j.Utilization(3*time.Second) != 0.2 {
		t.Error("second half should be Low")
	}
	if j.Utilization(5*time.Second) != 0.9 {
		t.Error("second period first half should be High")
	}
}

func TestJitterHasNoTrend(t *testing.T) {
	j := Jitter{Low: 0.3, High: 0.7, Period: 2 * time.Second}
	// Average over whole periods equals the midpoint: no trend.
	var sum float64
	const n = 4000
	for i := 0; i < n; i++ {
		sum += j.Utilization(time.Duration(i) * 250 * time.Millisecond)
	}
	if avg := sum / n; math.Abs(avg-0.5) > 0.01 {
		t.Errorf("jitter average %v, want ~0.5", avg)
	}
}

func TestSequenceTransitionsAndHolds(t *testing.T) {
	s := Sequence{Segments: []TimedSegment{
		{Gen: Constant(0.1), For: 10 * time.Second},
		{Gen: Constant(0.9), For: 10 * time.Second},
	}}
	if s.Utilization(5*time.Second) != 0.1 {
		t.Error("first segment")
	}
	if s.Utilization(15*time.Second) != 0.9 {
		t.Error("second segment")
	}
	if s.Utilization(time.Hour) != 0.9 {
		t.Error("last segment should hold")
	}
}

func TestSequenceSegmentLocalTime(t *testing.T) {
	s := Sequence{Segments: []TimedSegment{
		{Gen: Constant(0), For: 20 * time.Second},
		{Gen: Step{Before: 0.1, After: 0.9, At: 5 * time.Second}, For: 20 * time.Second},
	}}
	if got := s.Utilization(22 * time.Second); got != 0.1 {
		t.Errorf("segment-local time: at 22s = %v, want 0.1 (2s into segment)", got)
	}
	if got := s.Utilization(26 * time.Second); got != 0.9 {
		t.Errorf("segment-local time: at 26s = %v, want 0.9", got)
	}
}

func TestEmptySequence(t *testing.T) {
	if (Sequence{}).Utilization(0) != 0 {
		t.Error("empty sequence should demand 0")
	}
}

func TestFig2ProfileShape(t *testing.T) {
	g := Fig2Profile()
	if u := g.Utilization(10 * time.Second); u > 0.1 {
		t.Errorf("baseline = %v, want idle", u)
	}
	if u := g.Utilization(40 * time.Second); u < 0.9 {
		t.Errorf("after sudden onset = %v, want high", u)
	}
	// Gradual phase: utilization increases over time.
	u1 := g.Utilization(160 * time.Second)
	u2 := g.Utilization(230 * time.Second)
	if u2 <= u1 {
		t.Errorf("gradual phase not increasing: %v then %v", u1, u2)
	}
}

func TestBTB4Calibration(t *testing.T) {
	p := BTB4()
	got := p.IdealSeconds(2.4)
	// Ideal time excludes per-iteration barrier overhead; the cluster
	// measures ≈219 s (the paper's Table 1 baseline) on top of this.
	if math.Abs(got-214) > 2 {
		t.Errorf("BT.B.4 ideal time at 2.4 GHz = %.1f s, want ≈214", got)
	}
	if len(p.Iters) != 200 {
		t.Errorf("BT.B.4 has %d iterations, want 200", len(p.Iters))
	}
	// Slowdown at 2.2 GHz ≈ +6%, matching Table 1's 233/219: memory
	// stalls and communication do not scale with frequency.
	slow := p.IdealSeconds(2.2) / got
	if slow < 1.04 || slow > 1.08 {
		t.Errorf("2.2 GHz slowdown factor = %.3f, want 1.04..1.08", slow)
	}
}

func TestLUB4Calibration(t *testing.T) {
	p := LUB4()
	got := p.IdealSeconds(2.4)
	if math.Abs(got-210) > 4 {
		t.Errorf("LU.B.4 ideal time = %.1f s, want ≈210", got)
	}
	if p.Iters[0].MemSec <= 0 {
		t.Error("LU should carry memory-stall time")
	}
}

func TestKernelSuiteCalibration(t *testing.T) {
	cases := []struct {
		prog    Program
		idealS  float64
		tol     float64
		maxSens float64 // slowdown factor at 2.0 GHz
		minSens float64
	}{
		{EPB4(), 90, 3, 1.25, 1.15},  // compute-bound: near-pure scaling
		{CGB4(), 101, 4, 1.06, 1.01}, // memory-bound: nearly flat
		{MGB4(), 18, 1, 1.12, 1.04},
	}
	for _, c := range cases {
		got := c.prog.IdealSeconds(2.4)
		if math.Abs(got-c.idealS) > c.tol {
			t.Errorf("%s ideal = %.1f s, want %.0f±%.0f", c.prog.Name, got, c.idealS, c.tol)
		}
		sens := c.prog.IdealSeconds(2.0) / got
		if sens < c.minSens || sens > c.maxSens {
			t.Errorf("%s sensitivity at 2.0 GHz = %.3f, want %.2f..%.2f",
				c.prog.Name, sens, c.minSens, c.maxSens)
		}
	}
}

func TestKernelFrequencySensitivityOrdering(t *testing.T) {
	// EP (compute-bound) must be more frequency-sensitive than BT,
	// which must be more sensitive than CG (memory-bound).
	sens := func(p Program) float64 { return p.IdealSeconds(2.0) / p.IdealSeconds(2.4) }
	ep, bt, cg := sens(EPB4()), sens(BTB4()), sens(CGB4())
	if !(ep > bt && bt > cg) {
		t.Errorf("sensitivity ordering violated: EP %.3f, BT %.3f, CG %.3f", ep, bt, cg)
	}
}

func TestIdealSecondsMonotoneInFrequency(t *testing.T) {
	p := BTB4()
	prev := 0.0
	for _, f := range []float64{2.4, 2.2, 2.0, 1.8, 1.0} {
		tm := p.IdealSeconds(f)
		if tm <= prev {
			t.Fatalf("IdealSeconds(%v) = %v not greater than at higher freq %v", f, tm, prev)
		}
		prev = tm
	}
}

func TestGeneratorsAlwaysInUnitRange(t *testing.T) {
	gens := []Generator{
		Constant(0.5), Constant(2), Constant(-1),
		NewCPUBurn(rng.New(1)),
		Step{Before: -3, After: 7, At: 10 * time.Second},
		Ramp{From: -2, To: 5, Start: time.Second, Over: 20 * time.Second},
		Jitter{Low: -1, High: 9, Period: 3 * time.Second},
		Fig2Profile(),
		Trace{Samples: []float64{-5, 0.5, 8}, Period: time.Second, Loop: true},
		Sequence{Segments: []TimedSegment{
			{Gen: Constant(0.3), For: 5 * time.Second},
			{Gen: Jitter{Low: 0, High: 1, Period: time.Second}, For: 5 * time.Second},
		}},
	}
	if err := quick.Check(func(ms uint32) bool {
		t := time.Duration(ms) * time.Millisecond
		for _, g := range gens {
			u := g.Utilization(t)
			if u < 0 || u > 1 || math.IsNaN(u) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTraceInterpolates(t *testing.T) {
	tr := Trace{Samples: []float64{0, 1, 0.5}, Period: 10 * time.Second}
	if got := tr.Utilization(0); got != 0 {
		t.Errorf("t=0: %v", got)
	}
	if got := tr.Utilization(5 * time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("t=5s: %v, want 0.5 (midway 0→1)", got)
	}
	if got := tr.Utilization(10 * time.Second); got != 1 {
		t.Errorf("t=10s: %v, want 1", got)
	}
	if got := tr.Utilization(15 * time.Second); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("t=15s: %v, want 0.75", got)
	}
}

func TestTraceHoldsOrLoops(t *testing.T) {
	hold := Trace{Samples: []float64{0.2, 0.8}, Period: time.Second}
	if got := hold.Utilization(time.Hour); got != 0.8 {
		t.Errorf("hold: %v, want final 0.8", got)
	}
	loop := Trace{Samples: []float64{0.2, 0.8}, Period: time.Second, Loop: true}
	if got := loop.Utilization(2 * time.Second); got != 0.2 {
		t.Errorf("loop restart: %v, want 0.2", got)
	}
	// Last-to-first interpolation while looping.
	if got := loop.Utilization(1500 * time.Millisecond); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("loop wrap interpolation: %v, want 0.5", got)
	}
}

func TestTraceEmpty(t *testing.T) {
	if (Trace{}).Utilization(time.Second) != 0 {
		t.Error("empty trace should be 0")
	}
	if (Trace{Samples: []float64{1}, Period: 0}).Utilization(0) != 0 {
		t.Error("zero period should be 0")
	}
}

func TestTraceClamps(t *testing.T) {
	tr := Trace{Samples: []float64{-1, 2}, Period: time.Second}
	if tr.Utilization(0) != 0 || tr.Utilization(time.Second) != 1 {
		t.Error("trace values not clamped to [0,1]")
	}
}

func TestUniform(t *testing.T) {
	p := Uniform("X", 3, Iteration{ComputeGC: 1, ComputeUtil: 1, CommSec: 0.5})
	if p.TotalComputeGC() != 3 {
		t.Errorf("TotalComputeGC = %v, want 3", p.TotalComputeGC())
	}
	if got := p.IdealSeconds(1.0); math.Abs(got-4.5) > 1e-9 {
		t.Errorf("IdealSeconds = %v, want 4.5", got)
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

// countingGen is a time-only generator that counts its evaluations.
type countingGen struct {
	g     Generator
	calls int
}

func (c *countingGen) Utilization(t time.Duration) float64 {
	c.calls++
	return c.g.Utilization(t)
}

func TestSharedEvaluatesOncePerStep(t *testing.T) {
	d := Diurnal{Base: 0.5, Amplitude: 0.4, Period: 7 * time.Second, Phase: time.Second}
	g := &countingGen{g: d}
	s := NewShared(g)
	if g.calls != 1 {
		t.Fatalf("NewShared evaluated %d times, want once (t = 0)", g.calls)
	}
	for step := 0; step < 40; step++ {
		now := time.Duration(step) * 50 * time.Millisecond
		if step > 0 {
			s.OnStep(now)
		}
		calls := g.calls
		for node := 0; node < 16; node++ {
			if got, want := s.Utilization(now), d.Utilization(now); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("t=%v: memo %v, generator %v", now, got, want)
			}
		}
		if g.calls != calls {
			t.Fatalf("t=%v: %d evaluations for 16 reads of the stored time, want 0", now, g.calls-calls)
		}
	}
}

func TestSharedFallsBackOffItsStoredTime(t *testing.T) {
	d := Diurnal{Base: 0.5, Amplitude: 0.4, Period: 7 * time.Second}
	g := &countingGen{g: d}
	s := NewShared(g)
	s.OnStep(2 * time.Second)
	for _, at := range []time.Duration{0, time.Second, 2*time.Second - 1, 2*time.Second + 1, time.Hour} {
		calls := g.calls
		if got, want := s.Utilization(at), d.Utilization(at); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("t=%v: memo %v, generator %v", at, got, want)
		}
		if g.calls != calls+1 {
			t.Fatalf("t=%v: memo did not ask the generator for a time it did not store", at)
		}
	}
}
