package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds collided %d/100 times", same)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) != 100 {
		t.Errorf("zero-value source produced %d distinct values out of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("parent and child streams collided %d/100 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(9).Split()
	c2 := New(9).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	if err := quick.Check(func(_ int) bool {
		v := s.Float64()
		return v >= 0 && v < 1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d, out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0): expected panic")
		}
	}()
	s.Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormMaxBoundsClampedDraw(t *testing.T) {
	if NormMax < 37.1 || NormMax > 37.2 {
		t.Errorf("NormMax = %v, want sqrt(-2·ln 1e-300) ≈ 37.17", NormMax)
	}
	// SplitMix64's finalizer maps 0 to 0, so the state one increment
	// short of wrapping yields u1 = 0: the draw Norm clamps.
	s := &Source{state: 0 - 0x9e3779b97f4a7c15 + 1<<64}
	if v := s.Norm(); math.Abs(v) > NormMax || math.Abs(v) < 1 {
		t.Errorf("clamped draw = %v, want 1 ≤ |v| ≤ NormMax", v)
	}
	s = New(21)
	for i := 0; i < 100000; i++ {
		if v := s.Norm(); math.Abs(v) > NormMax {
			t.Fatalf("draw %d = %v exceeds NormMax %v", i, v, NormMax)
		}
	}
}

// TestNormBoundsBracketNorm checks NormBounds against Norm on the same
// stream state over 10⁷ seeded draws: the bracket contains the draw,
// both leave the stream at the same position, and ok is false only in
// the lowest u1 bin.
func TestNormBoundsBracketNorm(t *testing.T) {
	const n = 10_000_000
	s := New(20100913)
	var width float64
	notOK := 0
	for k := 0; k < n; k++ {
		eager := *s
		lo, hi, ok := s.NormBounds()
		v := eager.Norm()
		if !(lo <= v && v <= hi) {
			t.Fatalf("draw %d: Norm() = %v outside NormBounds [%v, %v]", k, v, lo, hi)
		}
		if eager != *s {
			t.Fatalf("draw %d: NormBounds left the stream at %#x, Norm at %#x", k, s.state, eager.state)
		}
		if ok {
			width += hi - lo
		} else {
			notOK++
		}
	}
	// One u1 bin in normBins has no bracket; the rest are narrow.
	if frac := float64(notOK) / n; frac > 2.0/normBins {
		t.Errorf("ok = false on %.4f%% of draws, want about %.4f%%", 100*frac, 100.0/normBins)
	}
	if mean := width / float64(n-notOK); mean > 0.02 {
		t.Errorf("mean bracket width %v, want below 0.02", mean)
	}
}

// TestNormBoundsAtBinEdges checks the bracket on hand-picked draws: u2
// at and beside the bin edges around 0, ¼, ½ and ¾ of the cosine's
// period (where its slope changes sign or it crosses zero), crossed
// with u1 at and beside the edges of the top and bottom bins.
func TestNormBoundsAtBinEdges(t *testing.T) {
	const binW = 1 << (64 - normBinBits) // stream values per bin
	const ulp = 1 << 11                  // one step of u1 or u2
	edges := func(bins ...uint64) []uint64 {
		var xs []uint64
		for _, b := range bins {
			start := b * binW
			xs = append(xs, start, start+ulp, start+binW-ulp, start+binW-1)
		}
		return xs
	}
	q := uint64(normBins / 4)
	x2s := edges(0, 1, q-1, q, q+1, 2*q-1, 2*q, 2*q+1, 3*q-1, 3*q, 3*q+1, normBins-1)
	x1s := edges(0, 1, 2, 3, normBins/2, normBins-2, normBins-1)
	for _, x1 := range x1s {
		for _, x2 := range x2s {
			v := boxMuller(float64(x1>>11)/(1<<53), float64(x2>>11)/(1<<53))
			lo, hi, ok := normBounds(x1, x2)
			if !(lo <= v && v <= hi) {
				t.Errorf("x1 %#x x2 %#x: Norm %v outside [%v, %v]", x1, x2, v, lo, hi)
			}
			if bottom := x1 < binW; ok == bottom {
				t.Errorf("x1 %#x: ok = %v, want %v", x1, ok, !bottom)
			}
		}
	}
}

func TestNormRangeClamps(t *testing.T) {
	s := New(17)
	for i := 0; i < 10000; i++ {
		v := s.NormRange(0, 10, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("NormRange clamp violated: %v", v)
		}
	}
}

func TestNormRangeStreamConsumptionFixed(t *testing.T) {
	// NormRange must consume exactly two stream values per call regardless
	// of clamping, so downstream consumers stay aligned.
	a := New(23)
	b := New(23)
	a.NormRange(0, 100, -0.001, 0.001) // heavily clamped
	b.NormRange(0, 0.0001, -10, 10)    // never clamped
	if a.Uint64() != b.Uint64() {
		t.Error("NormRange consumed a different number of stream values depending on clamping")
	}
}

func TestMixIsPure(t *testing.T) {
	if Mix(42, 3) != Mix(42, 3) {
		t.Error("Mix is not a pure function of (seed, stream)")
	}
}

func TestMixAvoidsAdditiveCollisions(t *testing.T) {
	// The old cluster seed derivation was seed + i*7919: families whose
	// master seeds differ by a multiple of the stride shared stream
	// seeds (family 0's stream 1 == family 7919's stream 0). Mix must
	// keep every such pair apart.
	for _, stride := range []uint64{7919, 101, 1} {
		if Mix(0, 1) == Mix(stride, 0) && stride != 0 {
			// Note: only the old scheme's exact collision shape is
			// checked; a full-mix collision has probability ~2^-64.
			t.Errorf("Mix(0,1) == Mix(%d,0): stream seeds collide across families", stride)
		}
	}
}

func TestMixSpreadsStreams(t *testing.T) {
	// Streams of one family must all differ (no fixed points, no
	// short cycles over small indices).
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 1000; i++ {
		v := Mix(20100131, i)
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d collide", prev, i)
		}
		seen[v] = i
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkNormBounds(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.NormBounds()
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Norm()
	}
}
