package thermal

import (
	"math"
	"sort"
	"testing"
	"time"

	"thermctl/internal/rng"
)

func TestNewStartsAtAmbient(t *testing.T) {
	n := New(Default())
	if n.DieC() != 27 || n.SinkC() != 27 {
		t.Errorf("fresh network die=%v sink=%v, want ambient 27", n.DieC(), n.SinkC())
	}
}

func TestRsaMonotoneDecreasingInAirflow(t *testing.T) {
	// A grid eight times finer than the table's knots, plus the ulps
	// around the Pow/table seam, with no slack.
	n := New(Default())
	var as []float64
	for i := 0; i <= 8*convKnots; i++ {
		as = append(as, float64(i)/(8*convKnots))
	}
	seam := convSeam
	for i := 0; i < 64; i++ {
		seam = math.Nextafter(seam, 0)
	}
	for i := 0; i < 128; i++ {
		as = append(as, seam)
		seam = math.Nextafter(seam, 1)
	}
	for i := 0; i < 2*convKnots; i++ {
		as = append(as, float64(i)/(2*convKnots)*convSeam)
	}
	sort.Float64s(as)
	prev := n.RsaKPerW(as[0])
	for _, a := range as[1:] {
		r := n.RsaKPerW(a)
		if r > prev {
			t.Fatalf("Rsa(%v) = %v rises above %v at the previous airflow", a, r, prev)
		}
		prev = r
	}
}

func TestRsaNonFiniteAirflow(t *testing.T) {
	n := New(Default())
	if got, want := n.RsaKPerW(math.NaN()), n.RsaKPerW(0); got != want {
		t.Errorf("Rsa(NaN) = %v, want still air %v", got, want)
	}
	if got, want := n.RsaKPerW(math.Inf(-1)), n.RsaKPerW(0); got != want {
		t.Errorf("Rsa(-Inf) = %v, want still air %v", got, want)
	}
	if got, want := n.RsaKPerW(math.Inf(1)), n.RsaKPerW(1); got != want {
		t.Errorf("Rsa(+Inf) = %v, want full airflow %v", got, want)
	}
	n.Step(time.Second, 60, math.NaN())
	if math.IsNaN(n.DieC()) || math.IsNaN(n.SinkC()) {
		t.Errorf("a NaN airflow poisoned the state: die=%v sink=%v", n.DieC(), n.SinkC())
	}
}

func TestPow08WithinBoundOfPow(t *testing.T) {
	check := func(a float64) {
		t.Helper()
		want := math.Pow(a, 0.8)
		if got := pow08(a); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("pow08(%v) = %v, math.Pow = %v: off by %.3g of the value",
				a, got, want, math.Abs(got-want)/want)
		}
	}
	for i := 0; i <= convKnots; i++ {
		check(float64(i) / convKnots)
		if i < convKnots {
			check((float64(i) + 0.5) / convKnots)
		}
	}
	for _, a := range []float64{0, 1, convSeam, math.Nextafter(convSeam, 0), math.Nextafter(convSeam, 1)} {
		check(a)
	}
	// Exact at the knots the table holds.
	for i := int(convSeam * convKnots); i <= convKnots; i++ {
		a := float64(i) / convKnots
		if pow08(a) != math.Pow(a, 0.8) {
			t.Fatalf("pow08(%v) = %v, want math.Pow's %v at a knot", a, pow08(a), math.Pow(a, 0.8))
		}
	}
}

// randomSteps returns a seeded sequence of (dt, power, airflow) steps:
// power up to pmax, airflow anywhere in [0, 1] with still air and the
// Pow region below the seam well represented.
func randomSteps(seed uint64, count int, pmax float64) (dts []time.Duration, ps, as []float64) {
	r := rng.New(seed)
	for i := 0; i < count; i++ {
		dts = append(dts, []time.Duration{50 * time.Millisecond, 250 * time.Millisecond, time.Second}[r.Intn(3)])
		ps = append(ps, pmax*r.Float64())
		var a float64
		switch r.Intn(10) {
		case 0:
			a = 0
		case 1:
			a = convSeam * r.Float64()
		default:
			a = r.Float64()
		}
		as = append(as, a)
	}
	return dts, ps, as
}

func TestStepMatchesPowReference(t *testing.T) {
	cfg := Default()
	ref := func(a float64) float64 {
		return 1 / (cfg.ConvH0 + cfg.ConvH1*math.Pow(a, cfg.ConvExp))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		dts, ps, as := randomSteps(seed, 10000, 120)
		k, r := New(cfg), New(cfg)
		var worst float64
		for i := range dts {
			k.Step(dts[i], ps[i], as[i])
			r.integrate(dts[i], ps[i], ref(as[i]))
			worst = math.Max(worst, math.Abs(k.DieC()-r.DieC()))
		}
		t.Logf("seed %d: max |Δdie| %.3g °C", seed, worst)
		if worst > 1e-5 {
			t.Errorf("seed %d: tabulated kernel's die strays %.3g °C from the math.Pow reference", seed, worst)
		}
	}
}

func TestTemperatureBoundedByStillAirSteadyState(t *testing.T) {
	const pmax = 120
	cfg := Default()
	n := New(cfg)
	top := cfg.AmbientC + pmax*(n.RsaKPerW(0)+cfg.RjsKPerW)
	for seed := uint64(1); seed <= 4; seed++ {
		dts, ps, as := randomSteps(seed, 10000, pmax)
		n := New(cfg)
		for i := range dts {
			n.Step(dts[i], ps[i], as[i])
			for _, v := range []float64{n.DieC(), n.SinkC()} {
				if v < cfg.AmbientC || v > top {
					t.Fatalf("seed %d step %d: die %v / sink %v outside [%v, %v]",
						seed, i, n.DieC(), n.SinkC(), cfg.AmbientC, top)
				}
			}
		}
	}
}

func TestRsaClampsAirflow(t *testing.T) {
	n := New(Default())
	if n.RsaKPerW(-1) != n.RsaKPerW(0) {
		t.Error("negative airflow not clamped")
	}
	if n.RsaKPerW(2) != n.RsaKPerW(1) {
		t.Error("airflow above 1 not clamped")
	}
}

func TestSettleMatchesSteadyState(t *testing.T) {
	n := New(Default())
	n.Settle(60, 0.7)
	want := n.SteadyDieC(60, 0.7)
	if math.Abs(n.DieC()-want) > 1e-9 {
		t.Errorf("settled die %v, steady-state predicts %v", n.DieC(), want)
	}
}

func TestStepConvergesToSteadyState(t *testing.T) {
	n := New(Default())
	for i := 0; i < 4000; i++ { // 1000 s
		n.Step(250*time.Millisecond, 60, 0.7)
	}
	want := n.SteadyDieC(60, 0.7)
	if math.Abs(n.DieC()-want) > 0.05 {
		t.Errorf("die after long run = %v, steady state = %v", n.DieC(), want)
	}
}

func TestDieRespondsFasterThanSink(t *testing.T) {
	n := New(Default())
	n.Settle(15, 0.2)
	die0, sink0 := n.DieC(), n.SinkC()
	// Apply a power step for 5 seconds.
	for i := 0; i < 20; i++ {
		n.Step(250*time.Millisecond, 60, 0.2)
	}
	dieRise := n.DieC() - die0
	sinkRise := n.SinkC() - sink0
	if dieRise <= sinkRise {
		t.Errorf("die rise %v not faster than sink rise %v after power step", dieRise, sinkRise)
	}
	if dieRise < 2 {
		t.Errorf("die rise after 5 s of a 45 W step = %v °C, want noticeable (>2)", dieRise)
	}
}

func TestStabilityAtLargeStep(t *testing.T) {
	// Sub-stepping must keep Euler stable even with a 10 s caller step.
	n := New(Default())
	for i := 0; i < 100; i++ {
		n.Step(10*time.Second, 60, 0.5)
		if n.DieC() < 0 || n.DieC() > 200 || math.IsNaN(n.DieC()) {
			t.Fatalf("instability at step %d: die=%v", i, n.DieC())
		}
	}
	want := n.SteadyDieC(60, 0.5)
	if math.Abs(n.DieC()-want) > 0.1 {
		t.Errorf("large-step run converged to %v, want %v", n.DieC(), want)
	}
}

// TestCalibration checks the operating points this reproduction is tuned
// to, which anchor every experiment:
//
//	busy CPU (~60 W) at 75% fan duty  → ≈50 °C   (paper Fig. 5/6 range)
//	busy CPU at 25% duty              → ≈60 °C   (above the 51 °C tDVFS threshold)
//	idle CPU (~15 W) at low duty      → high 30s  (paper Fig. 2 baseline)
func TestCalibration(t *testing.T) {
	n := New(Default())
	// Airflow for duty d with the default fan: 0.08 + 0.92·d/100.
	airflow := func(duty float64) float64 { return 0.08 + 0.92*duty/100 }

	busy75 := n.SteadyDieC(60, airflow(75))
	if busy75 < 46 || busy75 > 54 {
		t.Errorf("busy @75%% duty = %.1f °C, want 46..54", busy75)
	}
	busy25 := n.SteadyDieC(60, airflow(25))
	if busy25 < 55 || busy25 > 65 {
		t.Errorf("busy @25%% duty = %.1f °C, want 55..65", busy25)
	}
	if busy25-busy75 < 4 {
		t.Errorf("25%%→75%% duty gap = %.1f °C, want >4", busy25-busy75)
	}
	idle := n.SteadyDieC(15, airflow(10))
	if idle < 34 || idle > 42 {
		t.Errorf("idle @10%% duty = %.1f °C, want 34..42", idle)
	}
	full := n.SteadyDieC(60, airflow(100))
	if busy25-full < 6 || busy25-full > 14 {
		t.Errorf("25%%→100%% duty gap = %.1f °C, want 6..14 (paper Fig. 7 ≈8)", busy25-full)
	}
}

func TestSetAmbientShiftsSteadyState(t *testing.T) {
	n := New(Default())
	base := n.SteadyDieC(60, 0.5)
	n.SetAmbientC(n.AmbientC() + 5)
	if got := n.SteadyDieC(60, 0.5); math.Abs(got-base-5) > 1e-9 {
		t.Errorf("ambient +5 °C moved steady state by %v, want exactly 5", got-base)
	}
}

func TestEnergyConservationAtEquilibrium(t *testing.T) {
	// At steady state, stepping must not drift.
	n := New(Default())
	n.Settle(45, 0.6)
	before := n.DieC()
	for i := 0; i < 400; i++ {
		n.Step(250*time.Millisecond, 45, 0.6)
	}
	if math.Abs(n.DieC()-before) > 0.01 {
		t.Errorf("equilibrium drifted from %v to %v", before, n.DieC())
	}
}

// BenchmarkThermalStep sweeps the airflow across the default fan's
// range, 0.08 at 0% duty to 1 at 100%, so the convection law never
// sees the same airflow twice in a row.
func BenchmarkThermalStep(b *testing.B) {
	n := New(Default())
	n.Settle(50, 0.5)
	for i := 0; i < b.N; i++ {
		n.Step(250*time.Millisecond, 50, 0.08+0.92*float64(i%101)/100)
	}
}
