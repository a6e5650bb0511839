package core_test

// Golden step-trace equivalence harness. Each scenario drives a
// controller through a deterministic synthetic thermal script (including
// scripted read and actuation faults) and records every externally
// observable event — actuator applies, error counts, indices, fail-safe
// edges — as a byte-exact trace. The committed testdata/golden files
// were recorded from the pre-engine controller implementations; the
// engine-hosted policies must reproduce them byte for byte, which is the
// behavior-preservation contract of the control-plane refactor.
//
// The goldens are stored as event-only .tct trace images (one event per
// trace line, t = line ordinal; see internal/tracefile) and compared
// with the same Diff primitives cmd/thermtrace uses, so every go test
// run also exercises the binary writer, reader and differ end to end.
// Inspect a golden with `go run ./cmd/thermtrace cat -events <file>`.
//
// Regenerate (only when a deliberate behavior change is being made):
//
//	go test ./internal/core -run TestGolden -update

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thermctl/internal/core"
	"thermctl/internal/tracefile"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// trace accumulates the byte-exact event log of one scenario.
type trace struct {
	lines []string
}

func (tr *trace) addf(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

// checkGolden compares the trace against testdata/golden/<name>.tct,
// or rewrites the file under -update.
func checkGolden(t *testing.T, name string, tr *trace) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".tct")
	if *update {
		img, err := tracefile.EncodeEvents(tr.lines)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines, %d bytes)", path, len(tr.lines), len(img))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if err := tracefile.DiffEventLines(want, tr.lines); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// scriptReader replays a synthetic temperature script; read i fails when
// fail(i) is true. Each call consumes one index, exactly like one sample
// from a real sensor stream.
type scriptReader struct {
	i    int
	temp func(i int) float64
	fail func(i int) bool
}

func (r *scriptReader) read() (float64, error) {
	i := r.i
	r.i++
	if r.fail != nil && r.fail(i) {
		return 0, errors.New("golden: scripted read fault")
	}
	return r.temp(i), nil
}

// traceActuator records every Apply in the trace; call c fails when
// fail(c) is true.
type traceActuator struct {
	name  string
	modes int
	tr    *trace
	fail  func(call int) bool
	calls int
	cur   int
}

func (a *traceActuator) Name() string          { return a.name }
func (a *traceActuator) NumModes() int         { return a.modes }
func (a *traceActuator) Current() (int, error) { return a.cur, nil }

func (a *traceActuator) Apply(m int) error {
	call := a.calls
	a.calls++
	if a.fail != nil && a.fail(call) {
		a.tr.addf("  apply %s mode=%d call=%d FAIL", a.name, m, call)
		return errors.New("golden: scripted apply fault")
	}
	a.cur = m
	a.tr.addf("  apply %s mode=%d call=%d ok", a.name, m, call)
	return nil
}

// traceFreqPort is the FreqPort analogue of traceActuator, for the tDVFS
// lane (NewTDVFS builds its own DVFSActuator over a port).
type traceFreqPort struct {
	tr    *trace
	freqs []int64
	cur   int64
	calls int
	fail  func(call int) bool
}

func (p *traceFreqPort) AvailableKHz() ([]int64, error) { return p.freqs, nil }
func (p *traceFreqPort) CurrentKHz() (int64, error)     { return p.cur, nil }

func (p *traceFreqPort) SetKHz(f int64) error {
	call := p.calls
	p.calls++
	if p.fail != nil && p.fail(call) {
		p.tr.addf("  setkhz %d call=%d FAIL", f, call)
		return errors.New("golden: scripted freq fault")
	}
	p.cur = f
	p.tr.addf("  setkhz %d call=%d ok", f, call)
	return nil
}

// stepDt mirrors the cluster's simulation step; controllers sample every
// fifth step at their 250 ms period.
const stepDt = 50 * time.Millisecond

// fanScript is a smooth multi-tone thermal trajectory spanning the
// controller's [Tmin, Tmax] band with excursions below Tmin.
func fanScript(i int) float64 {
	x := float64(i)
	return 52 + 16*math.Sin(x/22) + 5*math.Sin(x/7.3) + 0.8*math.Sin(x*1.7)
}

// tdvfsScript crosses the 51 °C threshold slowly, plateaus, creeps into
// the emergency band, then cools back below the hysteresis point.
func tdvfsScript(i int) float64 {
	switch {
	case i < 40:
		return 45
	case i < 160:
		return 45 + 13*float64(i-40)/120 // ramp to 58
	case i < 260:
		return 58 + 0.002*float64(i-160) // hot plateau, flat trend
	case i < 320:
		return 58.2 + 4*float64(i-260)/60 // creep into the emergency band
	case i < 420:
		return 62.2 - 18*float64(i-320)/100 // cool to 44.2
	default:
		return 46
	}
}

// hybridScript heats under load, holds hot long enough to engage tDVFS,
// and then idles so the coordinator must release the fan floor.
func hybridScript(i int) float64 {
	switch {
	case i < 60:
		return 44 + 12*float64(i)/60
	case i < 280:
		return 56 + 1.5*math.Sin(float64(i)/17)
	case i < 360:
		return 56 - 14*float64(i-280)/80
	default:
		return 42 + 0.5*math.Sin(float64(i)/11)
	}
}

func fanState(tr *trace, step int, c *core.Controller, slots int) {
	line := fmt.Sprintf("step=%04d errs=%d fs=%v", step, c.Binding().Errors(), c.Binding().FailSafe())
	for i := 0; i < slots; i++ {
		line += fmt.Sprintf(" idx%d=%d moves%d=%d", i, c.Policy().Index(i), i, c.Moves(i))
	}
	tr.lines = append(tr.lines, line)
}

func fanEvents(tr *trace, c *core.Controller) {
	for _, ev := range c.FailSafeEvents() {
		tr.addf("event at=%s engaged=%v", ev.At, ev.Engaged)
	}
	tr.addf("final status %s", c.Status())
}

func TestGoldenFanClean(t *testing.T) {
	tr := &trace{}
	r := &scriptReader{temp: fanScript}
	act := &traceActuator{name: "fan", modes: 100, tr: tr}
	c, err := core.NewController(core.DefaultConfig(50), r.read, act)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 1200; step++ {
		c.Binding().OnStep(time.Duration(step) * stepDt)
		if step%5 == 0 {
			fanState(tr, step, c, 1)
		}
	}
	fanEvents(tr, c)
	checkGolden(t, "fan-clean", tr)
}

func TestGoldenFanFaulty(t *testing.T) {
	tr := &trace{}
	r := &scriptReader{
		temp: fanScript,
		// 15 consecutive failed samples: escalation at the 8th, then
		// the dropout continues under fail-safe before recovery.
		fail: func(i int) bool { return i >= 120 && i < 135 },
	}
	act := &traceActuator{
		name: "fan", modes: 100, tr: tr,
		// A flaky actuation window early on, plus a stuck bus during
		// the escalation so the fail-safe apply itself must retry.
		fail: func(call int) bool {
			return (call >= 10 && call < 13) || (call >= 30 && call < 33)
		},
	}
	c, err := core.NewController(core.DefaultConfig(35), r.read, act)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 1200; step++ {
		c.Binding().OnStep(time.Duration(step) * stepDt)
		if step%5 == 0 {
			fanState(tr, step, c, 1)
		}
	}
	fanEvents(tr, c)
	checkGolden(t, "fan-faulty", tr)
}

func TestGoldenFanMultiActuator(t *testing.T) {
	tr := &trace{}
	r := &scriptReader{temp: fanScript}
	fan := &traceActuator{name: "fan", modes: 100, tr: tr}
	dvfs := &traceActuator{name: "dvfs", modes: 5, tr: tr}
	acpi := &traceActuator{name: "acpi", modes: 8, tr: tr}
	c, err := core.NewController(core.DefaultConfig(60), r.read, fan, dvfs, acpi)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 1500; step++ {
		c.Binding().OnStep(time.Duration(step) * stepDt)
		if step%5 == 0 {
			fanState(tr, step, c, 3)
		}
	}
	fanEvents(tr, c)
	checkGolden(t, "fan-multi", tr)
}

func TestGoldenTDVFS(t *testing.T) {
	tr := &trace{}
	r := &scriptReader{
		temp: tdvfsScript,
		// Post-cooldown sensor dropout: 16 consecutive failures force
		// the frequency-floor escalation and a recovery.
		fail: func(i int) bool { return i >= 430 && i < 446 },
	}
	port := &traceFreqPort{
		tr:    tr,
		freqs: []int64{2400000, 2200000, 2000000, 1800000, 1600000},
		cur:   2400000,
		fail:  func(call int) bool { return call == 1 },
	}
	act, err := core.NewDVFSActuator(port)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewTDVFS(core.DefaultTDVFSConfig(50), r.read, act)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2600; step++ {
		d.Binding().OnStep(time.Duration(step) * stepDt)
		if step%5 == 0 {
			tr.addf("step=%04d errs=%d fs=%v mode=%d downs=%d ups=%d engaged=%v",
				step, d.Binding().Errors(), d.Binding().FailSafe(), d.Binding().Policy().(*core.ThresholdPolicy).CurrentMode(),
				d.Downscales(), d.Upscales(), d.Engaged())
		}
	}
	for _, ev := range d.Binding().FailSafeEvents() {
		tr.addf("event at=%s engaged=%v", ev.At, ev.Engaged)
	}
	at, ok := d.TriggeredAt()
	tr.addf("final triggered=%v at=%s mode=%d", ok, at, d.Binding().Policy().(*core.ThresholdPolicy).CurrentMode())
	checkGolden(t, "tdvfs", tr)
}

func TestGoldenHybrid(t *testing.T) {
	tr := &trace{}
	// Both lanes sample one reader, as ControlSpec.BuildNode wires
	// them; the engine reads it once per round for both.
	r := &scriptReader{temp: hybridScript,
		fail: func(i int) bool { return i >= 300 && i < 312 }}
	fanAct := &traceActuator{name: "fan", modes: 100, tr: tr}
	port := &traceFreqPort{tr: tr,
		freqs: []int64{2400000, 2200000, 2000000, 1800000, 1600000},
		cur:   2400000}
	dvfsAct, err := core.NewDVFSActuator(port)
	if err != nil {
		t.Fatal(err)
	}
	fan, err := core.NewController(core.DefaultConfig(50), r.read, fanAct)
	if err != nil {
		t.Fatal(err)
	}
	dvfs, err := core.NewTDVFS(core.DefaultTDVFSConfig(50), r.read, dvfsAct)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(r.read)
	eng.Attach(dvfs.Binding(), nil)
	eng.Attach(fan.Binding(), core.HoldFloorHook(fan.Policy(), dvfs.Policy(), nil))
	for step := 0; step < 2200; step++ {
		eng.OnStep(time.Duration(step) * stepDt)
		if step%5 == 0 {
			tr.addf("step=%04d fan[errs=%d fs=%v idx=%d moves=%d] dvfs[errs=%d fs=%v mode=%d engaged=%v]",
				step, fan.Binding().Errors(), fan.Binding().FailSafe(), fan.Policy().Index(0), fan.Moves(0),
				dvfs.Binding().Errors(), dvfs.Binding().FailSafe(), dvfs.Binding().Policy().(*core.ThresholdPolicy).CurrentMode(), dvfs.Engaged())
		}
	}
	fanEvents(tr, fan)
	for _, ev := range dvfs.Binding().FailSafeEvents() {
		tr.addf("event dvfs at=%s engaged=%v", ev.At, ev.Engaged)
	}
	checkGolden(t, "hybrid", tr)
}

// watchdogScript is the tach reading at sample i: healthy, a confirmed
// seizure, a recovery, a brief stall that must not trip, and a second
// seizure and recovery. 100 RPM is exactly the stall threshold.
func watchdogScript(i int) float64 {
	switch {
	case i < 8:
		return 2400
	case i < 18:
		return 0
	case i < 20:
		return 100
	case i < 31:
		return 2400
	case i < 33:
		return 80
	case i < 40:
		return 2400
	case i < 46:
		return 0
	default:
		return 2400
	}
}

func TestGoldenWatchdog(t *testing.T) {
	tr := &trace{}
	r := &scriptReader{
		temp: watchdogScript,
		// Tach faults during the stall and during the recovery run.
		fail: func(i int) bool { return i == 16 || i == 17 || i == 22 },
	}
	port := &traceFreqPort{
		tr:    tr,
		freqs: []int64{2400000, 2200000, 2000000, 1800000, 1600000},
		cur:   2400000,
		// The first declaration and the first recovery writes fail.
		fail: func(call int) bool { return call == 0 || call == 2 },
	}
	act, err := core.NewDVFSActuator(port)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewWatchdog(r.read, act)
	if err != nil {
		t.Fatal(err)
	}
	w := b.Policy().(*core.WatchdogPolicy)
	// 1 s period: samples land every 20th simulation step.
	for step := 0; step < 1300; step++ {
		b.OnStep(time.Duration(step) * stepDt)
		if step%20 == 0 {
			tr.addf("step=%04d errs=%d emergency=%v events=%d",
				step, b.Errors(), w.Emergency(), len(w.Events()))
		}
	}
	for _, ev := range w.Events() {
		tr.addf("event at=%s failure=%v", ev.At, ev.Failure)
	}
	checkGolden(t, "watchdog", tr)
}
