package window

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	for _, cfg := range []Config{{L1Size: 0, L2Size: 5}, {L1Size: 3, L2Size: 5}, {L1Size: 4, L2Size: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v): expected panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestRoundCompletion(t *testing.T) {
	w := New(Default())
	for i := 0; i < 3; i++ {
		if w.Add(40) {
			t.Fatalf("round complete after %d samples", i+1)
		}
	}
	if !w.Add(40) {
		t.Fatal("round not complete after 4 samples")
	}
	if w.Avg() != 40 {
		t.Errorf("Avg after one round = %v, want 40", w.Avg())
	}
}

func TestDeltaL1HalfSums(t *testing.T) {
	w := New(Default())
	for _, v := range []float64{40, 41, 43, 44} {
		w.Add(v)
	}
	// (43+44) - (40+41) = 6
	if got := w.DeltaL1(); got != 6 {
		t.Errorf("DeltaL1 = %v, want 6", got)
	}
	if got := w.Avg(); got != 42 {
		t.Errorf("Avg = %v, want 42", got)
	}
}

func TestDeltaL1JitterCancels(t *testing.T) {
	// Symmetric oscillation: half-sums are equal, Δt_L1 = 0. This is
	// the mechanism that makes the controller ignore Type III jitter.
	w := New(Default())
	for _, v := range []float64{40, 44, 40, 44} {
		w.Add(v)
	}
	if got := w.DeltaL1(); got != 0 {
		t.Errorf("DeltaL1 for jitter = %v, want 0", got)
	}
}

func TestL1ClearedBetweenRounds(t *testing.T) {
	w := New(Default())
	for _, v := range []float64{40, 40, 50, 50} {
		w.Add(v) // ΔL1 = 20
	}
	for _, v := range []float64{50, 50, 50, 50} {
		w.Add(v)
	}
	if got := w.DeltaL1(); got != 0 {
		t.Errorf("DeltaL1 after flat round = %v, want 0 (L1 cleared)", got)
	}
}

func TestDeltaL2FrontToRear(t *testing.T) {
	w := New(Config{L1Size: 2, L2Size: 3})
	feed := func(avg float64) {
		w.Add(avg)
		w.Add(avg)
	}
	feed(40)
	if w.DeltaL2() != 0 {
		t.Error("DeltaL2 with one entry should be 0")
	}
	feed(42)
	if got := w.DeltaL2(); got != 2 {
		t.Errorf("DeltaL2 = %v, want 2", got)
	}
	feed(44)
	if got := w.DeltaL2(); got != 4 {
		t.Errorf("DeltaL2 = %v, want 4 (44-40)", got)
	}
	if !w.L2Full() {
		t.Error("L2 should be full after 3 rounds")
	}
	feed(46) // evicts 40
	if got := w.DeltaL2(); got != 4 {
		t.Errorf("DeltaL2 after eviction = %v, want 4 (46-42)", got)
	}
}

func TestAvgBeforeFirstRound(t *testing.T) {
	w := New(Default())
	if !math.IsNaN(w.Avg()) {
		t.Error("Avg before any round should be NaN")
	}
}

func TestAllL2AboveBelow(t *testing.T) {
	w := New(Config{L1Size: 2, L2Size: 2})
	w.Add(55)
	w.Add(55)
	if w.AllL2Above(51) {
		t.Error("AllL2Above true before FIFO full")
	}
	w.Add(56)
	w.Add(56)
	if !w.AllL2Above(51) {
		t.Error("AllL2Above false with entries 55, 56 > 51")
	}
	if w.AllL2Below(51) {
		t.Error("AllL2Below true with hot entries")
	}
	w.Add(45)
	w.Add(45)
	if w.AllL2Above(51) {
		t.Error("AllL2Above true with a 45 entry")
	}
	w.Add(44)
	w.Add(44)
	if !w.AllL2Below(51) {
		t.Error("AllL2Below false with entries 45, 44 < 51")
	}
}

func TestClassifySudden(t *testing.T) {
	w := New(Default())
	for _, v := range []float64{40, 40, 46, 46} {
		w.Add(v)
	}
	if got := w.Classify(); got != Sudden {
		t.Errorf("Classify = %v, want sudden", got)
	}
}

func TestClassifyJitter(t *testing.T) {
	w := New(Default())
	for _, v := range []float64{40, 42, 40, 42} {
		w.Add(v)
	}
	if got := w.Classify(); got != Jitter {
		t.Errorf("Classify = %v, want jitter", got)
	}
}

func TestClassifyGradual(t *testing.T) {
	w := New(Default())
	// Slow drift: +0.1 °C per sample. Per round Δt_L1 = 0.4 (below the
	// sudden threshold), but over 5 rounds the L2 spread is 1.6 °C.
	v := 40.0
	for r := 0; r < 5; r++ {
		for i := 0; i < 4; i++ {
			w.Add(v)
			v += 0.1
		}
	}
	if got := w.Classify(); got != Gradual {
		t.Errorf("Classify = %v, want gradual (ΔL1=%v ΔL2=%v)", got, w.DeltaL1(), w.DeltaL2())
	}
}

func TestClassifySteady(t *testing.T) {
	w := New(Default())
	for r := 0; r < 6; r++ {
		for i := 0; i < 4; i++ {
			w.Add(45.25)
		}
	}
	if got := w.Classify(); got != Steady {
		t.Errorf("Classify = %v, want steady", got)
	}
}

func TestBehaviorString(t *testing.T) {
	for b, want := range map[Behavior]string{Steady: "steady", Sudden: "sudden", Gradual: "gradual", Jitter: "jitter"} {
		if b.String() != want {
			t.Errorf("%d.String() = %q", b, b.String())
		}
	}
}

func TestDeltaL1InvariantUnderConstantOffset(t *testing.T) {
	// Adding a constant to every sample must not change either delta:
	// the window reacts to variation, not to absolute level.
	if err := quick.Check(func(a, b, c, d float64, off float64) bool {
		if !finite(a) || !finite(b) || !finite(c) || !finite(d) || !finite(off) {
			return true
		}
		w1 := New(Default())
		w2 := New(Default())
		for _, v := range []float64{a, b, c, d} {
			w1.Add(v)
			w2.Add(v + off)
		}
		return math.Abs(w1.DeltaL1()-w2.DeltaL1()) < 1e-6*(1+math.Abs(w1.DeltaL1()))
	}, nil); err != nil {
		t.Error(err)
	}
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9
}

func BenchmarkAdd(b *testing.B) {
	w := New(Default())
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 10))
	}
}
