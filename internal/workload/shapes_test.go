package workload

import (
	"math"
	"testing"
	"time"
)

func TestRandomDeterministicAndBounded(t *testing.T) {
	for _, dist := range []RandomDist{DistUniform, DistExponential, DistHeavyTail} {
		r := Random{Seed: 42, Hold: time.Second, Dist: dist, Lo: 0.1, Hi: 0.9}
		for i := 0; i < 500; i++ {
			at := time.Duration(i) * 100 * time.Millisecond
			u := r.Utilization(at)
			if u < 0.1 || u > 0.9 {
				t.Fatalf("dist %d: utilization %v at %v outside [0.1, 0.9]", dist, u, at)
			}
			if again := r.Utilization(at); again != u {
				t.Fatalf("dist %d: not a pure function of time: %v then %v", dist, u, again)
			}
		}
	}
}

func TestRandomHoldsWithinSlot(t *testing.T) {
	r := Random{Seed: 7, Hold: time.Second}
	base := r.Utilization(5 * time.Second)
	if r.Utilization(5*time.Second+999*time.Millisecond) != base {
		t.Error("value changed inside one hold slot")
	}
	changed := false
	for slot := time.Duration(6); slot < 16; slot++ {
		if r.Utilization(slot*time.Second) != base {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("value never changed across ten hold slots")
	}
}

func TestRandomSeedsIndependent(t *testing.T) {
	a := Random{Seed: 1, Hold: time.Second}
	b := Random{Seed: 2, Hold: time.Second}
	same := 0
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Second
		if a.Utilization(at) == b.Utilization(at) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds agreed on %d/100 slots", same)
	}
}

func TestRandomZeroHoldPinsOneDraw(t *testing.T) {
	r := Random{Seed: 3}
	if r.Utilization(0) != r.Utilization(time.Hour) {
		t.Error("Hold <= 0 should degenerate to one draw held forever")
	}
}

func TestRandomDistributionsDiffer(t *testing.T) {
	// Same seed, different distributions: the shapes must actually
	// differ — exponential and heavy-tail spend most time near the
	// floor, uniform does not.
	var uniSum, expSum float64
	const n = 1000
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Second
		uniSum += Random{Seed: 9, Hold: time.Second, Dist: DistUniform}.Utilization(at)
		expSum += Random{Seed: 9, Hold: time.Second, Dist: DistExponential, Mean: 0.2}.Utilization(at)
	}
	if uniMean := uniSum / n; math.Abs(uniMean-0.5) > 0.05 {
		t.Errorf("uniform mean %v, want ~0.5", uniMean)
	}
	if expMean := expSum / n; expMean > 0.35 {
		t.Errorf("exponential(0.2) mean %v, want well below uniform's", expMean)
	}
}

func TestStepsProgram(t *testing.T) {
	s := Steps{Levels: []float64{0.1, 0.5, 0.9}, Hold: 10 * time.Second}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0.1},
		{9 * time.Second, 0.1},
		{10 * time.Second, 0.5},
		{25 * time.Second, 0.9},
		{time.Hour, 0.9}, // holds last level
	}
	for _, c := range cases {
		if got := s.Utilization(c.at); got != c.want {
			t.Errorf("at %v = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestStepsLoop(t *testing.T) {
	s := Steps{Levels: []float64{0.2, 0.8}, Hold: time.Second, Loop: true}
	if got := s.Utilization(2 * time.Second); got != 0.2 {
		t.Errorf("first level after wrap = %v, want 0.2", got)
	}
	if got := s.Utilization(3 * time.Second); got != 0.8 {
		t.Errorf("second level after wrap = %v, want 0.8", got)
	}
}

func TestStepsZeroHoldPinsFirstLevel(t *testing.T) {
	s := Steps{Levels: []float64{0.3, 0.7}}
	if s.Utilization(time.Hour) != 0.3 {
		t.Error("Hold <= 0 should pin the first level")
	}
}

func TestDiurnalCycle(t *testing.T) {
	d := Diurnal{Base: 0.5, Amplitude: 0.3, Period: 24 * time.Hour}
	if got := d.Utilization(0); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("trough at t=0 = %v, want 0.2", got)
	}
	if got := d.Utilization(12 * time.Hour); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("peak at half period = %v, want 0.8", got)
	}
	if got := d.Utilization(24 * time.Hour); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("trough again at full period = %v, want 0.2", got)
	}
	shifted := Diurnal{Base: 0.5, Amplitude: 0.3, Period: 24 * time.Hour, Phase: 12 * time.Hour}
	if got := shifted.Utilization(0); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("phase-shifted start = %v, want 0.8 (peak)", got)
	}
	if (Diurnal{Base: 0.5, Amplitude: 0.3}).Utilization(time.Hour) != 0.2 {
		t.Error("Period <= 0 should pin the trough")
	}
}

func TestFlashCrowdShape(t *testing.T) {
	f := FlashCrowd{Base: 0.2, Peak: 0.9, At: 60 * time.Second, Rise: 10 * time.Second, Decay: 30 * time.Second}
	if got := f.Utilization(0); got != 0.2 {
		t.Errorf("before arrival = %v, want base", got)
	}
	if got := f.Utilization(65 * time.Second); math.Abs(got-0.55) > 1e-9 {
		t.Errorf("mid-rise = %v, want 0.55", got)
	}
	if got := f.Utilization(70 * time.Second); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("crest = %v, want peak", got)
	}
	// One decay time constant past the crest: base + (peak-base)/e.
	want := 0.2 + 0.7*math.Exp(-1)
	if got := f.Utilization(100 * time.Second); math.Abs(got-want) > 1e-9 {
		t.Errorf("one tau into decay = %v, want %v", got, want)
	}
	if got := f.Utilization(time.Hour); got > 0.201 {
		t.Errorf("long after = %v, want ~base", got)
	}
}

func TestFlashCrowdDegenerate(t *testing.T) {
	// Zero rise, zero decay: a one-instant spike, visible only at At.
	f := FlashCrowd{Base: 0.1, Peak: 1, At: 5 * time.Second}
	if got := f.Utilization(5 * time.Second); got != 1 {
		t.Errorf("crest instant = %v, want peak", got)
	}
	if got := f.Utilization(5*time.Second + 1); got != 0.1 {
		t.Errorf("just past crest = %v, want base", got)
	}
}

// --- Boundary behavior of the pre-plane primitives, pinned so the
// declarative spec layer inherits stable semantics. ---

func TestJitterOddPeriodBoundary(t *testing.T) {
	// An odd period floors the high window to Period/2: with Period=5ns
	// the wave is high for 2ns and low for 3ns — asymmetric, but stable.
	j := Jitter{Low: 0, High: 1, Period: 5}
	for phase, want := range map[time.Duration]float64{0: 1, 1: 1, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 0} {
		if got := j.Utilization(phase); got != want {
			t.Errorf("odd period at t=%dns = %v, want %v", phase, got, want)
		}
	}
}

func TestSequenceZeroLengthSegments(t *testing.T) {
	seq := Sequence{Segments: []TimedSegment{
		{Gen: Constant(0.1), For: 10 * time.Second},
		{Gen: Constant(0.5), For: 0}, // zero-length middle segment: never plays
		{Gen: Constant(0.9), For: 10 * time.Second},
	}}
	if got := seq.Utilization(10 * time.Second); got != 0.9 {
		t.Errorf("at zero-length segment boundary = %v, want the next segment's 0.9", got)
	}
	// A zero-length LAST segment still runs forever once reached.
	tail := Sequence{Segments: []TimedSegment{
		{Gen: Constant(0.1), For: 10 * time.Second},
		{Gen: Constant(0.5), For: 0},
	}}
	if got := tail.Utilization(11 * time.Second); got != 0.5 {
		t.Errorf("zero-length final segment = %v, want 0.5", got)
	}
}

func TestTraceLoopWrapInterpolation(t *testing.T) {
	tr := Trace{Samples: []float64{0.2, 0.8}, Period: 10 * time.Second, Loop: true}
	// Inside the last sample's interval a looping trace interpolates
	// toward Samples[0]: halfway from 0.8 back to 0.2 is 0.5.
	if got := tr.Utilization(15 * time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("looping wrap interpolation = %v, want 0.5", got)
	}
	// Exactly at the span boundary the loop restarts at Samples[0].
	if got := tr.Utilization(20 * time.Second); got != 0.2 {
		t.Errorf("at span with loop = %v, want 0.2", got)
	}
	// Without Loop the final sample holds flat instead.
	hold := Trace{Samples: []float64{0.2, 0.8}, Period: 10 * time.Second}
	if got := hold.Utilization(15 * time.Second); got != 0.8 {
		t.Errorf("non-looping final interval = %v, want 0.8", got)
	}
}

func TestRampExactlyAtStart(t *testing.T) {
	r := Ramp{From: 0.2, To: 0.8, Start: 10 * time.Second, Over: 60 * time.Second}
	if got := r.Utilization(10 * time.Second); got != 0.2 {
		t.Errorf("at t == Start = %v, want From", got)
	}
	// Degenerate ramp (Over <= 0) is a step: From at Start, To after.
	step := Ramp{From: 0.2, To: 0.8, Start: 10 * time.Second}
	if got := step.Utilization(10 * time.Second); got != 0.2 {
		t.Errorf("degenerate ramp at t == Start = %v, want From", got)
	}
	if got := step.Utilization(10*time.Second + 1); got != 0.8 {
		t.Errorf("degenerate ramp just past Start = %v, want To", got)
	}
}

// TestHeldMatchesRandom checks the per-node memo against the pure
// generator it wraps, bit for bit, on every path: each side of a slot
// boundary, slot 0 reached from t <= 0, a non-dividing and a
// non-positive Hold, times near the ends of the Duration range, and
// calls that go back in time.
func TestHeldMatchesRandom(t *testing.T) {
	const ns = time.Nanosecond
	for _, dist := range []RandomDist{DistUniform, DistExponential, DistHeavyTail} {
		for _, hold := range []time.Duration{time.Second, 333 * time.Millisecond, 0, -time.Second} {
			r := Random{Seed: 11, Hold: hold, Dist: dist, Lo: 0.05, Hi: 0.95, Mean: 0.3, Alpha: 1.5}
			step := hold
			if step <= 0 {
				step = time.Second
			}
			var ts []time.Duration
			for _, k := range []time.Duration{0, 1, 2, 3, 7, 1000} {
				ts = append(ts, k*step-ns, k*step, k*step+ns)
			}
			ts = append(ts, 0, -ns, -step, math.MinInt64, math.MaxInt64-ns, math.MaxInt64)
			// Forward, then backward, then interleaved.
			seq := append([]time.Duration(nil), ts...)
			for i := len(ts) - 1; i >= 0; i-- {
				seq = append(seq, ts[i])
			}
			for i := range ts {
				seq = append(seq, ts[i], ts[len(ts)-1-i])
			}
			h := &held{r: r}
			for _, at := range seq {
				got, want := h.Utilization(at), r.Utilization(at)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dist %d hold %v: held(%v) = %v, Random = %v", dist, hold, at, got, want)
				}
			}
		}
	}
}

// TestSpecRandomIsHeld checks that Spec.Build hands each node the memo,
// not the bare generator: the step path pays a hit, not a draw.
func TestSpecRandomIsHeld(t *testing.T) {
	g, err := (&Spec{Kind: KindRandom, Dist: "exponential"}).Build(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := g.(*held)
	if !ok {
		t.Fatalf("Build returned %T, want *held", g)
	}
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		if got, want := h.Utilization(at), h.r.Utilization(at); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("at %v: %v, want %v", at, got, want)
		}
	}
}
