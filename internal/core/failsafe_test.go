package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeFanPort records the last commanded duty.
type fakeFanPort struct{ duty float64 }

func (p *fakeFanPort) SetDutyPercent(d float64) error { p.duty = d; return nil }
func (p *fakeFanPort) DutyPercent() (float64, error)  { return p.duty, nil }

// failAfter returns a reader producing v for n reads and failing
// permanently afterwards.
func failAfter(n int, v float64) TempReader {
	reads := 0
	return func() (float64, error) {
		reads++
		if reads > n {
			return 0, errors.New("sensor dead")
		}
		return v, nil
	}
}

// Regression for the skip-round-forever bug: a temperature reader that
// dies permanently mid-run used to leave the fan wherever it was while
// the controller counted errors forever. The fail-safe must drive it to
// 100% duty within the escalation window.
func TestFailSafePermanentReadFailureDrivesFanToMax(t *testing.T) {
	period := 250 * time.Millisecond
	port := &fakeFanPort{}
	fan := NewFanActuator(port, 100)
	goodSamples := 40 // 10 clean rounds before the sensor dies
	c, err := NewController(DefaultConfig(50), failAfter(goodSamples, 50), fan)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, goodSamples)
	if port.duty >= 100 {
		t.Fatalf("fan already at %v%% before the failure", port.duty)
	}
	drive2 := func(from, n int) {
		for i := from + 1; i <= from+n; i++ {
			c.Binding().OnStep(time.Duration(i) * period)
		}
	}
	esc := FailSafeEscalateErrors
	drive2(goodSamples, esc-1)
	if c.Binding().FailSafe() {
		t.Fatal("fail-safe engaged before the escalation threshold")
	}
	drive2(goodSamples+esc-1, 1)
	if !c.Binding().FailSafe() {
		t.Fatal("fail-safe not engaged after the escalation threshold")
	}
	if port.duty != 100 {
		t.Errorf("fan duty = %v%% under fail-safe, want 100", port.duty)
	}
	ev := c.FailSafeEvents()
	if len(ev) != 1 || !ev[0].Engaged {
		t.Fatalf("events = %+v, want single escalation", ev)
	}
	wantAt := time.Duration(goodSamples+esc) * period
	if ev[0].At != wantAt {
		t.Errorf("escalated at %v, want %v", ev[0].At, wantAt)
	}
	// The escalation must hold: many more failed samples later the fan is
	// still pinned at max.
	drive2(goodSamples+esc, 200)
	if port.duty != 100 || !c.Binding().FailSafe() {
		t.Errorf("fail-safe released under a still-dead sensor (duty=%v)", port.duty)
	}
}

// A sensor that recovers releases the fail-safe after RecoverSamples
// consecutive clean reads, and normal control resumes.
func TestFailSafeRecovery(t *testing.T) {
	period := 250 * time.Millisecond
	port := &fakeFanPort{}
	fan := NewFanActuator(port, 100)
	reads := 0
	deadFrom, deadTo := 20, 40 // reads [21, 40] fail
	read := func() (float64, error) {
		reads++
		if reads > deadFrom && reads <= deadTo {
			return 0, errors.New("sensor glitch")
		}
		return 50, nil
	}
	c, err := NewController(DefaultConfig(50), read, fan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		c.Binding().OnStep(time.Duration(i) * period)
	}
	ev := c.FailSafeEvents()
	if len(ev) != 2 || !ev[0].Engaged || ev[1].Engaged {
		t.Fatalf("events = %+v, want one escalation then one recovery", ev)
	}
	wantRelease := time.Duration(deadTo+FailSafeRecoverSamples) * period
	if ev[1].At != wantRelease {
		t.Errorf("released at %v, want %v", ev[1].At, wantRelease)
	}
	if c.Binding().FailSafe() {
		t.Error("fail-safe still engaged after recovery")
	}
	if port.duty >= 100 {
		t.Errorf("fan still at %v%% long after recovery; control did not resume", port.duty)
	}
}

// deadActuator rejects every Apply except the most effective mode, so
// a run of failed actuations must escalate even while reads stay clean.
type deadActuator struct {
	modes   int
	applied []int
}

func (a *deadActuator) Name() string  { return "dead" }
func (a *deadActuator) NumModes() int { return a.modes }
func (a *deadActuator) Apply(m int) error {
	if m != a.modes-1 {
		return errors.New("bus write failed")
	}
	a.applied = append(a.applied, m)
	return nil
}
func (a *deadActuator) Current() (int, error) { return 0, nil }

func TestFailSafeActuationFailuresEscalate(t *testing.T) {
	period := 250 * time.Millisecond
	act := &deadActuator{modes: 100}
	// Rising ramp: the index moves (and Apply fails) every round.
	reads := 0
	read := func() (float64, error) {
		reads++
		return 40 + float64(reads)*0.25, nil
	}
	c, err := NewController(DefaultConfig(50), read, act)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 400; i++ {
		c.Binding().OnStep(time.Duration(i) * period)
	}
	ev := c.FailSafeEvents()
	if len(ev) == 0 || !ev[0].Engaged {
		t.Fatalf("events = %+v, want an escalation from failed actuations", ev)
	}
	if len(act.applied) == 0 || act.applied[0] != act.modes-1 {
		t.Errorf("escalation never landed the most effective mode; applied=%v", act.applied)
	}
}

// TestErrorsConcurrentWithOnStep exercises the Errors/Status vs OnStep
// data race fixed by making the error counter atomic. Run with -race.
func TestErrorsConcurrentWithOnStep(t *testing.T) {
	failing := func() (float64, error) { return 0, errors.New("dead") }
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), failing, fa)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		drive(c, 2000)
	}()
	var last uint64
	for i := 0; i < 2000; i++ {
		last = c.Binding().Errors()
	}
	wg.Wait()
	if got := c.Binding().Errors(); got != 2000 {
		t.Errorf("Errors = %d after 2000 failed samples, want 2000", got)
	}
	_ = last
}

// TDVFS mirrors the controller's policy with the frequency floor as the
// escalation target; Engaged() holds the hybrid fan floor throughout.
func TestTDVFSFailSafeDrivesFrequencyFloor(t *testing.T) {
	n, act := newDVFSRig(t)
	d, err := NewTDVFS(DefaultTDVFSConfig(50), failAfter(40, 48), act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 40, nil)
	if d.Binding().FailSafe() || d.Engaged() {
		t.Fatal("fail-safe engaged while the sensor was healthy")
	}
	period := 250 * time.Millisecond
	esc := FailSafeEscalateErrors
	for i := 41; i <= 40+esc; i++ {
		d.Binding().OnStep(time.Duration(i) * period)
	}
	if !d.Binding().FailSafe() {
		t.Fatal("fail-safe not engaged after the escalation threshold")
	}
	if !d.Engaged() {
		t.Error("Engaged() false under fail-safe; hybrid fan floor would drop")
	}
	if want := act.NumModes() - 1; d.pol.CurrentMode() != want {
		t.Errorf("CurrentMode = %d under fail-safe, want floor %d", d.pol.CurrentMode(), want)
	}
	if got, want := n.CPU.FreqGHz(), 1.0; got != want {
		t.Errorf("CPU at %v GHz under fail-safe, want floor %v", got, want)
	}
	ev := d.Binding().FailSafeEvents()
	if len(ev) != 1 || !ev[0].Engaged {
		t.Fatalf("events = %+v, want single escalation", ev)
	}
}

// NoFailSafe turns the escalation off: a dead sensor is only counted,
// as the baselines and the tach watchdog want.
func TestFailSafeDisable(t *testing.T) {
	cfg := DefaultConfig(50)
	fa := &fakeActuator{modes: 100}
	pol, err := NewCtlArrayPolicy(cfg, fa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBinding(BindingConfig{
		Policy:       pol,
		Read:         failAfter(0, 0),
		SamplePeriod: cfg.SamplePeriod,
		Window:       &cfg.Window,
		NoFailSafe:   true,
		Actuators:    []Actuator{fa},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		b.OnStep(time.Duration(i) * cfg.SamplePeriod)
	}
	if b.FailSafe() || len(fa.applied) != 0 || len(b.FailSafeEvents()) != 0 {
		t.Errorf("disabled fail-safe still escalated (applied=%v)", fa.applied)
	}
	if b.Errors() != 100 {
		t.Errorf("Errors = %d, want 100", b.Errors())
	}
}

// dutyPolicy commands a fixed duty through Txn.ApplyDuty, like the
// static-map and PID baselines.
type dutyPolicy struct{ pct float64 }

func (p dutyPolicy) Name() string   { return "duty" }
func (p dutyPolicy) Decide(tx *Txn) { tx.ApplyDuty(0, p.pct) }

// A FanDutyActuator's one mode is the fail-safe target, so a binding
// that keeps the fail-safe enabled must escalate the fan to full duty,
// not to 0%.
func TestFanDutyActuatorFailSafeEscalatesToFullDuty(t *testing.T) {
	period := 250 * time.Millisecond
	port := &fakeFanPort{}
	goodSamples := 4
	b, err := NewBinding(BindingConfig{
		Policy:       dutyPolicy{pct: 30},
		Read:         failAfter(goodSamples, 50),
		SamplePeriod: period,
		Actuators:    []Actuator{&FanDutyActuator{Port: port}},
	})
	if err != nil {
		t.Fatal(err)
	}
	esc := FailSafeEscalateErrors
	for i := 1; i <= goodSamples+esc; i++ {
		b.OnStep(time.Duration(i) * period)
		if i == goodSamples && port.duty != 30 {
			t.Fatalf("duty = %v%% before the failure, want the policy's 30", port.duty)
		}
	}
	if !b.FailSafe() {
		t.Fatal("fail-safe not engaged after the escalation threshold")
	}
	if port.duty != 100 {
		t.Errorf("fan duty = %v%% under fail-safe, want 100", port.duty)
	}
}
