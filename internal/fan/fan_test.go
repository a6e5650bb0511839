package fan

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"thermctl/internal/metrics"
)

func TestSetDutyClamps(t *testing.T) {
	f := New(Default(), 50)
	f.SetDuty(150)
	if f.Duty() != 100 {
		t.Errorf("Duty after SetDuty(150) = %v, want 100", f.Duty())
	}
	f.SetDuty(-5)
	if f.Duty() != 0 {
		t.Errorf("Duty after SetDuty(-5) = %v, want 0", f.Duty())
	}
	f.SetDuty(math.Copysign(0, -1))
	if math.Signbit(f.Duty()) {
		t.Errorf("Duty after SetDuty(-0) = %v, want +0", f.Duty())
	}
}

func TestSetDutyNaNHoldsLastDuty(t *testing.T) {
	f := New(Default(), 40)
	f.InstrumentMetrics(metrics.NewRegistry())
	for i := 0; i < 20; i++ {
		f.Step(50 * time.Millisecond)
	}
	duty, rpm := f.Duty(), f.RPM()
	f.SetDuty(math.NaN())
	f.Step(50 * time.Millisecond)
	if f.Duty() != duty || f.RPM() != rpm {
		t.Fatalf("after SetDuty(NaN) and Step: duty %v rpm %v, want %v and %v", f.Duty(), f.RPM(), duty, rpm)
	}
	if n := f.dutyTransitions.Value(); n != 0 {
		t.Errorf("SetDuty(NaN) counted %d duty transitions, want 0", n)
	}
	f.SetDuty(60)
	for i := 0; i < 200; i++ {
		f.Step(50 * time.Millisecond)
	}
	want := New(Default(), 60).RPM()
	if got := f.RPM(); math.IsNaN(got) || math.Abs(got-want) > 1 {
		t.Errorf("RPM after SetDuty(60) = %v, want about %v", got, want)
	}
	for _, v := range []float64{f.Airflow(), f.Power(), f.TachRPM()} {
		if math.IsNaN(v) {
			t.Errorf("NaN in airflow/power/tach after recovery: %v %v %v", f.Airflow(), f.Power(), f.TachRPM())
		}
	}

	g := New(Default(), math.NaN())
	g.Step(50 * time.Millisecond)
	if g.Duty() != 0 || g.RPM() != 0 || math.IsNaN(g.Power()) {
		t.Errorf("New(cfg, NaN): duty %v rpm %v power %v, want a stopped, finite fan", g.Duty(), g.RPM(), g.Power())
	}
}

func TestFullDutyReachesMaxRPM(t *testing.T) {
	f := New(Default(), 100)
	if got := f.RPM(); math.Abs(got-4300) > 1 {
		t.Errorf("RPM at 100%% duty = %v, want 4300", got)
	}
	if got := f.Airflow(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Airflow at full speed = %v, want 1", got)
	}
}

func TestZeroDutyStopsFan(t *testing.T) {
	f := New(Default(), 0)
	if f.RPM() != 0 {
		t.Errorf("RPM at 0%% duty = %v, want 0", f.RPM())
	}
	if f.Power() != 0 {
		t.Errorf("Power at 0 RPM = %v, want 0", f.Power())
	}
}

func TestSpinUpFloor(t *testing.T) {
	cfg := Default()
	f := New(cfg, 1)
	want := cfg.MaxRPM * (cfg.FloorFrac + (1-cfg.FloorFrac)*0.01)
	if math.Abs(f.RPM()-want) > 1 {
		t.Errorf("RPM at 1%% duty = %v, want %v (spin floor)", f.RPM(), want)
	}
	if f.RPM() < cfg.MaxRPM*cfg.FloorFrac {
		t.Error("fan spinning below the physical floor")
	}
}

func TestRPMMonotonicInDuty(t *testing.T) {
	cfg := Default()
	if err := quick.Check(func(a, b uint8) bool {
		da, db := float64(a%101), float64(b%101)
		if da > db {
			da, db = db, da
		}
		fa, fb := New(cfg, da), New(cfg, db)
		return fa.RPM() <= fb.RPM()+1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestStepLagsTowardTarget(t *testing.T) {
	f := New(Default(), 10)
	start := f.RPM()
	f.SetDuty(100)
	f.Step(250 * time.Millisecond)
	mid := f.RPM()
	if mid <= start {
		t.Fatal("fan did not accelerate after duty increase")
	}
	target := 4300.0
	if mid >= target {
		t.Fatalf("fan reached target instantaneously: %v", mid)
	}
	// After many time constants it converges.
	for i := 0; i < 100; i++ {
		f.Step(250 * time.Millisecond)
	}
	if math.Abs(f.RPM()-target) > 5 {
		t.Errorf("fan did not converge: RPM=%v want ~%v", f.RPM(), target)
	}
}

func TestCubicPowerLaw(t *testing.T) {
	cfg := Default()
	full := New(cfg, 100)
	if math.Abs(full.Power()-cfg.MaxPower) > 1e-6 {
		t.Errorf("power at full speed = %v, want %v", full.Power(), cfg.MaxPower)
	}
	// Half airflow should draw one-eighth the power.
	half := New(cfg, 100)
	half.rpm = cfg.MaxRPM / 2
	if got, want := half.Power(), cfg.MaxPower/8; math.Abs(got-want) > 1e-6 {
		t.Errorf("power at half speed = %v, want %v", got, want)
	}
}

func TestTachQuantization(t *testing.T) {
	cfg := Default()
	f := New(cfg, 50)
	f.rpm = 2344
	if got := f.TachRPM(); got != 2340 {
		t.Errorf("TachRPM for 2344 = %v, want 2340 (30 RPM resolution)", got)
	}
	cfg.TachResolution = 0
	g := New(cfg, 50)
	g.rpm = 2344
	if got := g.TachRPM(); got != 2344 {
		t.Errorf("TachRPM with resolution 0 = %v, want raw 2344", got)
	}
}

func TestZeroTimeConstIsInstant(t *testing.T) {
	cfg := Default()
	cfg.TimeConst = 0
	f := New(cfg, 0)
	f.SetDuty(100)
	f.Step(time.Millisecond)
	if math.Abs(f.RPM()-4300) > 1e-9 {
		t.Errorf("zero time constant should be instantaneous, RPM=%v", f.RPM())
	}
}

func TestStringMentionsDutyAndRPM(t *testing.T) {
	f := New(Default(), 75)
	s := f.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestStepMatchesClosedForm(t *testing.T) {
	// Node.Settle steps the rotor at 1 s, a cluster at 50 ms, and the
	// SPMD executor in slices of a 50 ms step; the memoized lag factors
	// must give the closed form bit for bit across every switch between
	// them, at dt 0 and with no rotor lag.
	var dts []time.Duration
	for i := 0; i < 3; i++ {
		dts = append(dts, time.Second, time.Second, 50*time.Millisecond, 0, 50*time.Millisecond,
			50*time.Millisecond, time.Second, 0, 0, 250*time.Millisecond, 50*time.Millisecond,
			20*time.Millisecond, 30*time.Millisecond, 50*time.Millisecond, 25*time.Millisecond,
			25*time.Millisecond, 50*time.Millisecond, 50*time.Millisecond)
	}
	for _, tc := range []time.Duration{Default().TimeConst, 0} {
		cfg := Default()
		cfg.TimeConst = tc
		f := New(cfg, 10)
		rpm := f.RPM()
		for i, dt := range dts {
			f.SetDuty(float64(10 + 37*i%91))
			target := f.targetRPM()
			if tau := cfg.TimeConst.Seconds(); tau > 0 {
				rpm += (1 - math.Exp(-dt.Seconds()/tau)) * (target - rpm)
			} else {
				rpm = target
			}
			f.Step(dt)
			if math.Float64bits(f.RPM()) != math.Float64bits(rpm) {
				t.Fatalf("TimeConst %v step %d (dt %v): RPM %v, closed form %v", tc, i, dt, f.RPM(), rpm)
			}
		}
	}
}

func TestLagMemoKeepsStepAcrossSlices(t *testing.T) {
	// A phase boundary splits a 50 ms step into two odd slices; the
	// next full step must still find its lag factor memoized.
	step := 50 * time.Millisecond
	f := New(Default(), 10)
	for _, dt := range []time.Duration{time.Second, time.Second, step, step, 20 * time.Millisecond, 30 * time.Millisecond} {
		f.Step(dt)
	}
	if f.lagDt != step {
		t.Errorf("after 50 ms / 20 ms / 30 ms the kept step is %v, want %v", f.lagDt, step)
	}
}

func BenchmarkFanStep(b *testing.B) {
	f := New(Default(), 50)
	f.SetDuty(80)
	for i := 0; i < b.N; i++ {
		f.Step(250 * time.Millisecond)
	}
}
