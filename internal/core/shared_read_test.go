package core

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

// countingTemp is a reader that counts its calls and returns a
// temperature keyed on the step the test last set, failing where fail
// says so. Its outcome is a function of the step alone, as a sensor
// read is.
type countingTemp struct {
	reads int
	step  int
	fail  func(step int) bool
}

func (c *countingTemp) read() (float64, error) {
	c.reads++
	if c.fail != nil && c.fail(c.step) {
		return 0, errors.New("sensor dropout")
	}
	return 40 + float64(c.step%50), nil
}

// newCountingHybrid builds a hybrid over fake ports on one counting
// reader.
func newCountingHybrid(t *testing.T, r *countingTemp) *hybrid {
	t.Helper()
	fan, err := NewController(DefaultConfig(50), r.read,
		NewFanActuator(&fakeFanPort{}, 100))
	if err != nil {
		t.Fatal(err)
	}
	_, act := newDVFSRig(t)
	dvfs, err := NewTDVFS(DefaultTDVFSConfig(50), r.read, act)
	if err != nil {
		t.Fatal(err)
	}
	return newHybrid(fan, dvfs, nil)
}

// TestHybridReadsOncePerRound: both lanes sample every 250 ms, so a
// hybrid stepped at 50 ms reads its sensor once on every fifth step
// and never on the idle steps between.
func TestHybridReadsOncePerRound(t *testing.T) {
	r := &countingTemp{}
	h := newCountingHybrid(t, r)
	const dt = 50 * time.Millisecond
	rounds := 0
	for k := 1; k <= 400; k++ {
		now := time.Duration(k) * dt
		r.step = k
		due := h.NextDue() <= now
		before := r.reads
		h.OnStep(now)
		want := 0
		if due {
			want = 1
			rounds++
		}
		if got := r.reads - before; got != want {
			t.Fatalf("t=%v (due %v): %d reads, want %d", now, due, got, want)
		}
	}
	if rounds != 80 {
		t.Fatalf("%d rounds in 20 s, want 80", rounds)
	}
	if math.IsNaN(h.Fan.Binding().Window().Avg()) {
		t.Fatal("fan lane never received a sample")
	}
}

// recordPolicy records the sample of every round it decides.
type recordPolicy struct{ samples []float64 }

func (p *recordPolicy) Decide(tx *Txn) { p.samples = append(p.samples, tx.Sample()) }

// TestEngineReadsOncePerDueStep: with unequal lane periods the engine
// reads exactly once on each step where some lane is due, none
// otherwise, and every due lane decides on that one sample.
func TestEngineReadsOncePerDueStep(t *testing.T) {
	const dt = 50 * time.Millisecond
	r := &countingTemp{}
	eng := NewEngine(r.read)
	periods := []time.Duration{250 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond}
	pols := make([]*recordPolicy, len(periods))
	for i, p := range periods {
		pols[i] = &recordPolicy{}
		b, err := NewBinding(BindingConfig{Policy: pols[i], Read: r.read, SamplePeriod: p})
		if err != nil {
			t.Fatal(err)
		}
		eng.Attach(b, nil)
	}
	want := make([][]float64, len(periods))
	for k := 1; k <= 120; k++ {
		now := time.Duration(k) * dt
		r.step = k
		sample, _ := (&countingTemp{step: k}).read()
		due := 0
		for i, p := range periods {
			if now%p == 0 {
				due++
				want[i] = append(want[i], sample)
			}
		}
		before := r.reads
		eng.OnStep(now)
		if got := r.reads - before; got != min(due, 1) {
			t.Fatalf("t=%v: %d reads with %d lanes due, want %d", now, got, due, min(due, 1))
		}
	}
	for i := range periods {
		if !slices.Equal(pols[i].samples, want[i]) {
			t.Errorf("lane %d (period %v) decided on %v, want %v", i, periods[i], pols[i].samples, want[i])
		}
	}
}

// TestEngineLanesMatchStandaloneBindingsOnFaultyReader: a hybrid's
// lanes, fed the engine's one read per round, keep exactly the error
// count, fail-safe state and fail-safe log that a standalone fan
// controller and a standalone tDVFS daemon keep on the same reader —
// through a dead spell long enough to escalate, a recovery, and an
// intermittent dropout.
func TestEngineLanesMatchStandaloneBindingsOnFaultyReader(t *testing.T) {
	fail := func(step int) bool {
		switch {
		case step >= 200 && step < 260: // 3 s dead: escalates
			return true
		case step >= 500 && step < 700: // dropout on every other round
			return step%10 == 0
		}
		return false
	}
	shared := &countingTemp{fail: fail}
	h := newCountingHybrid(t, shared)

	alone := &countingTemp{fail: fail}
	fan, err := NewController(DefaultConfig(50), alone.read,
		NewFanActuator(&fakeFanPort{}, 100))
	if err != nil {
		t.Fatal(err)
	}
	_, act := newDVFSRig(t)
	dvfs, err := NewTDVFS(DefaultTDVFSConfig(50), alone.read, act)
	if err != nil {
		t.Fatal(err)
	}

	const dt = 50 * time.Millisecond
	lanes := []struct {
		name      string
		got, want *Binding
	}{
		{"fan", h.Fan.Binding(), fan.Binding()},
		{"dvfs", h.DVFS.Binding(), dvfs.Binding()},
	}
	for k := 1; k <= 1000; k++ {
		now := time.Duration(k) * dt
		shared.step, alone.step = k, k
		h.OnStep(now)
		dvfs.Binding().OnStep(now)
		fan.Binding().OnStep(now)
		for _, l := range lanes {
			if l.got.Errors() != l.want.Errors() || l.got.FailSafe() != l.want.FailSafe() {
				t.Fatalf("t=%v %s lane: errors %d fail-safe %v, standalone %d %v",
					now, l.name, l.got.Errors(), l.got.FailSafe(), l.want.Errors(), l.want.FailSafe())
			}
		}
	}
	for _, l := range lanes {
		got, want := l.got.FailSafeEvents(), l.want.FailSafeEvents()
		if !slices.Equal(got, want) {
			t.Errorf("%s lane fail-safe log %v, standalone %v", l.name, got, want)
		}
		if len(want) < 2 || l.want.Errors() == 0 {
			t.Errorf("%s: standalone log %v with %d errors; the faults did not bite", l.name, want, l.want.Errors())
		}
	}
	if shared.reads*2 != alone.reads {
		t.Errorf("hybrid read %d times, the two standalone lanes %d; want half", shared.reads, alone.reads)
	}
}
