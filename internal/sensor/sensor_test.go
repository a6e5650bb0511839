package sensor

import (
	"math"
	"testing"

	"thermctl/internal/faults"
	"thermctl/internal/rng"
)

func TestQuantization(t *testing.T) {
	s := New(Config{Quantum: 0.25}, SourceFunc(func() float64 { return 51.37 }), nil)
	got := s.Read()
	if got != 51.25 && got != 51.5 {
		t.Errorf("quantized read = %v, want multiple of 0.25 near 51.37", got)
	}
	if r := math.Mod(got, 0.25); math.Abs(r) > 1e-9 {
		t.Errorf("read %v is not a multiple of the 0.25 quantum", got)
	}
}

func TestNoNoiseWithoutStream(t *testing.T) {
	s := New(Config{Quantum: 0, NoiseStd: 5}, SourceFunc(func() float64 { return 40 }), nil)
	for i := 0; i < 10; i++ {
		if got := s.Read(); got != 40 {
			t.Fatalf("read with nil noise stream = %v, want exact 40", got)
		}
	}
}

func TestOffsetApplied(t *testing.T) {
	s := New(Config{Offset: 1.5}, SourceFunc(func() float64 { return 40 }), nil)
	if got := s.Read(); got != 41.5 {
		t.Errorf("read with offset = %v, want 41.5", got)
	}
}

func TestNoiseStatistics(t *testing.T) {
	src := SourceFunc(func() float64 { return 50 })
	s := New(Config{NoiseStd: 0.15}, src, rng.New(1))
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Read()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-50) > 0.01 {
		t.Errorf("noisy mean = %v, want ~50", mean)
	}
	if math.Abs(std-0.15) > 0.02 {
		t.Errorf("noise std = %v, want ~0.15", std)
	}
}

func TestDefaultRealism(t *testing.T) {
	s := New(Default(), SourceFunc(func() float64 { return 51.0 }), rng.New(7))
	for i := 0; i < 1000; i++ {
		v := s.Read()
		if v < 50 || v > 52 {
			t.Fatalf("default sensor read %v strayed more than 1°C from truth", v)
		}
	}
}

func TestMillidegrees(t *testing.T) {
	s := New(Config{}, SourceFunc(func() float64 { return 51.25 }), nil)
	if got := s.Millidegrees(); got != 51250 {
		t.Errorf("Millidegrees = %v, want 51250", got)
	}
}

func TestTickKeyedReadsAreStableWithinTick(t *testing.T) {
	// With a tick source installed, any number of reads within one tick
	// return the identical value — attaching observers cannot perturb
	// the noise stream.
	tick := uint64(0)
	s := New(Default(), SourceFunc(func() float64 { return 50 }), rng.New(5))
	s.SetTickSource(func() uint64 { return tick })
	first := s.Read()
	for i := 0; i < 10; i++ {
		if got := s.Read(); got != first {
			t.Fatalf("read %d within one tick = %v, first was %v", i, got, first)
		}
	}
	tick++
	changed := false
	for i := 0; i < 50 && !changed; i++ {
		if s.Read() != first {
			changed = true
		}
		tick++
	}
	if !changed {
		t.Error("advancing ticks never produced a different sample")
	}
}

func TestTickKeyedNoiseStatistics(t *testing.T) {
	tick := uint64(0)
	s := New(Config{NoiseStd: 0.15}, SourceFunc(func() float64 { return 50 }), rng.New(9))
	s.SetTickSource(func() uint64 { return tick })
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Read()
		sum += v
		sumSq += v * v
		tick++
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-50) > 0.01 {
		t.Errorf("tick-keyed mean = %v", mean)
	}
	if math.Abs(std-0.15) > 0.02 {
		t.Errorf("tick-keyed std = %v, want ~0.15", std)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	mk := func() *Sensor {
		return New(Default(), SourceFunc(func() float64 { return 45 }), rng.New(99))
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Read() != b.Read() {
			t.Fatal("sensor reads with identical seeds diverged")
		}
	}
}

// TestOutsideAgreesWithEagerComparison sweeps the true temperature
// across both limits in steps finer than the quantum, over many ticks,
// and checks Outside against the comparison on an eager twin that
// converts in full: same answer every cycle, and a bit-identical last
// good sample. The limits sit on, just off and between quantum grid
// points, so quantization alone can carry a reading across one; the
// low-noise sensor is where only the quantum term of the bound
// protects the answer, the default one where the noise term does.
func TestOutsideAgreesWithEagerComparison(t *testing.T) {
	cfgs := []Config{
		Default(),
		{Quantum: 0.25, NoiseStd: 0.001},
		{Quantum: 0.25, NoiseStd: 0.15, Offset: 0.3},
	}
	for ci, cfg := range cfgs {
		for _, ticked := range []bool{true, false} {
			for _, off := range []float64{0, 0.01, 0.1, 0.125, 0.24} {
				lo, hi := 40+off, 50-off
				temp := 0.0
				src := SourceFunc(func() float64 { return temp })
				s := New(cfg, src, rng.New(uint64(ci+1)))
				e := New(cfg, src, rng.New(uint64(ci+1)))
				var tick uint64
				if ticked {
					s.SetTickSource(func() uint64 { return tick })
					e.SetTickSource(func() uint64 { return tick })
				}
				deferred := 0
				for temp = lo - 7; temp <= hi+7; temp += cfg.Quantum / 37 {
					for k := 0; k < 8; k++ {
						got, err := s.Outside(lo, hi)
						v, eerr := e.ReadChecked()
						if err != nil || eerr != nil {
							t.Fatalf("unexpected errors %v / %v", err, eerr)
						}
						if want := v < lo || v > hi; got != want {
							t.Fatalf("cfg %d ticked=%v limits [%v, %v] temp %v tick %d: Outside = %v, eager reading %v says %v",
								ci, ticked, lo, hi, temp, tick, got, v, want)
						}
						if s.deferred {
							deferred++
						}
						if tick%3 == 0 {
							if g := s.good(); math.Float64bits(g) != math.Float64bits(e.lastGood) {
								t.Fatalf("cfg %d ticked=%v temp %v tick %d: last good %v, eager %v",
									ci, ticked, temp, tick, g, e.lastGood)
							}
						}
						tick++
					}
				}
				if ticked && deferred == 0 {
					t.Errorf("cfg %d: Outside never deferred a conversion", ci)
				}
			}
		}
	}
}

// TestOutsideFaultsMatchReadChecked runs Outside and an eager twin
// through dropout and stuck episodes that follow deferred conversions.
// During a stuck episode both limits sit on the eager twin's last good
// sample, so only a bit-identical replay of it reads as inside.
func TestOutsideFaultsMatchReadChecked(t *testing.T) {
	temp := 45.0
	src := SourceFunc(func() float64 { return temp })
	s := New(Default(), src, rng.New(3))
	e := New(Default(), src, rng.New(3))
	var tick uint64
	s.SetTickSource(func() uint64 { return tick })
	e.SetTickSource(func() uint64 { return tick })
	states := []faults.State{{}, {SensorDropout: true}, {}, {SensorStuck: true},
		{SensorStuck: true, SensorSpikeC: 60}, {SensorSpikeC: 40}, {}, {SensorDropout: true}}
	for i, st := range states {
		inj := faults.Static(st)
		s.AttachInjector(inj)
		e.AttachInjector(inj)
		lo, hi := 0.0, 81.0
		if st.SensorStuck {
			lo, hi = e.lastGood, e.lastGood
		}
		temp += 0.37
		got, err := s.Outside(lo, hi)
		v, eerr := e.ReadChecked()
		if err != eerr {
			t.Fatalf("state %d %+v: Outside error %v, ReadChecked error %v", i, st, err, eerr)
		}
		if st.SensorDropout && err != ErrDropout {
			t.Fatalf("state %d: Outside during a dropout returned %v, want ErrDropout", i, err)
		}
		if eerr == nil {
			if want := v < lo || v > hi; got != want {
				t.Fatalf("state %d %+v: Outside = %v, eager reading %v says %v", i, st, got, v, want)
			}
		}
		// A dropout-time Read replays the last good sample, deferred or not.
		if st.SensorDropout {
			if g, w := s.Read(), e.Read(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("state %d: Read during dropout = %v, eager %v", i, g, w)
			}
		}
		tick++
	}
}

// eagerConvertAt is the conversion without the bracket: quantize(raw +
// NoiseStd·Norm) with the tick's noise stream.
func eagerConvertAt(s *Sensor, raw float64, tick uint64) float64 {
	if s.noise != nil && s.cfg.NoiseStd > 0 {
		src := rng.At(s.noiseBase ^ (tick * 0x9e3779b97f4a7c15))
		raw += s.cfg.NoiseStd * src.Norm()
	}
	return s.quantize(raw)
}

// TestBracketedConversionMatchesEager requires the bracketed conversion
// to be bit-identical to the eager one: raw swept in steps below a
// hundredth of the quantum across many quantum boundaries (around 0 °C,
// where the eager sample can be -0, below zero and at die
// temperatures), plus NaN, ±Inf and huge values, over many ticks, for
// quanta whose reciprocal is exact and inexact, no quantum and no
// noise. Without a tick source the noise stream must advance by
// exactly one Norm's worth of values per conversion, whether the
// bracket decided it or not.
func TestBracketedConversionMatchesEager(t *testing.T) {
	cfgs := []Config{
		Default(),
		{Quantum: 0.25, NoiseStd: 0.001},
		{Quantum: 0.1, NoiseStd: 0.15},
		{Quantum: 1, NoiseStd: 1.5},
		{Quantum: 0.0625, NoiseStd: 0.15},
		{Quantum: 0, NoiseStd: 0.15},
		{Quantum: 0.25, NoiseStd: 0},
	}
	var raws []float64
	for _, sw := range []struct{ from, to, div float64 }{
		{-0.2, 0.2, 137}, {-60, -52, 101}, {38, 46, 103},
	} {
		for r := sw.from; r <= sw.to; r += 0.25 / sw.div {
			raws = append(raws, r)
		}
	}
	raws = append(raws, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300)
	negZero := 0
	for ci, cfg := range cfgs {
		s := New(cfg, SourceFunc(func() float64 { return 0 }), rng.New(uint64(ci+7)))
		var tick uint64
		for _, raw := range raws {
			for k := 0; k < 6; k++ {
				want := eagerConvertAt(s, raw, tick)
				if got := s.convertAt(raw, tick); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cfg %+v raw %v tick %d: bracketed %v (%#x), eager %v (%#x)",
						cfg, raw, tick, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if want == 0 && math.Signbit(want) {
					negZero++
				}
				tick += 7919
			}
			eager := *s.noise
			var want float64
			if cfg.NoiseStd > 0 {
				want = s.quantize(raw + cfg.NoiseStd*eager.Norm())
			} else {
				want = s.quantize(raw)
			}
			if got := s.convert(raw); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cfg %+v raw %v without a tick source: bracketed %v, eager %v", cfg, raw, got, want)
			}
			if s.noise.Uint64() != eager.Uint64() {
				t.Fatalf("cfg %+v raw %v: the noise stream advanced differently from Norm", cfg, raw)
			}
		}
	}
	if negZero == 0 {
		t.Error("no eager sample was -0: the sweep misses the sign-of-zero case")
	}
}

func BenchmarkSensorConvert(b *testing.B) {
	var tick uint64
	s := New(Default(), SourceFunc(func() float64 { return 45.3 }), rng.New(1))
	s.SetTickSource(func() uint64 { return tick })
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += s.Read()
		tick++
	}
	sinkC = sum
}

var sinkC float64
