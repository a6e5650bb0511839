package baseline_test

// Golden step-trace equivalence harness for the baseline controllers,
// recorded from the pre-engine implementations; the engine-hosted
// policies must reproduce these traces byte for byte. The goldens are
// event-only .tct images compared via the tracefile Diff primitives;
// see internal/core/golden_test.go for the contract and -update flow.

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thermctl/internal/baseline"
	"thermctl/internal/hwmon"
	"thermctl/internal/tracefile"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

type trace struct {
	lines []string
}

func (tr *trace) addf(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

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

// traceFanPort records every duty write; call c fails when fail(c) is
// true.
type traceFanPort struct {
	tr    *trace
	calls int
	cur   float64
	fail  func(call int) bool
}

func (p *traceFanPort) DutyPercent() (float64, error) { return p.cur, nil }

func (p *traceFanPort) SetDutyPercent(d float64) error {
	call := p.calls
	p.calls++
	if p.fail != nil && p.fail(call) {
		p.tr.addf("  setduty %.6f call=%d FAIL", d, call)
		return errors.New("golden: scripted duty fault")
	}
	p.cur = d
	p.tr.addf("  setduty %.6f call=%d ok", d, call)
	return nil
}

// traceFreqPort records every frequency write.
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

const stepDt = 50 * time.Millisecond

func staticScript(i int) float64 {
	x := float64(i)
	return 55 + 20*math.Sin(x/19) + 4*math.Sin(x/5.1)
}

func TestGoldenStaticFan(t *testing.T) {
	tr := &trace{}
	r := &scriptReader{
		temp: staticScript,
		fail: func(i int) bool { return i >= 90 && i < 96 },
	}
	port := &traceFanPort{tr: tr,
		fail: func(call int) bool { return call >= 40 && call < 43 }}
	s, err := baseline.NewStaticFan(75, r.read, port)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 1000; step++ {
		s.OnStep(time.Duration(step) * stepDt)
		if step%5 == 0 {
			tr.addf("step=%04d errs=%d", step, s.Errors())
		}
	}
	checkGolden(t, "staticfan", tr)
}

func TestGoldenConstantFan(t *testing.T) {
	tr := &trace{}
	// The port rejects the first two writes, so the pin must be retried
	// on the following steps and then never applied again.
	port := &traceFanPort{tr: tr, fail: func(call int) bool { return call < 2 }}
	c := baseline.NewConstantFan(75, port)
	for step := 0; step < 40; step++ {
		c.OnStep(time.Duration(step) * stepDt)
		tr.addf("step=%04d errs=%d", step, c.Errors())
	}
	checkGolden(t, "constantfan", tr)
}

// jiffies returns the scripted cumulative (busy, idle) jiffy counters at
// evaluation i: alternating compute and communication phases, so the
// daemon churns between frequencies exactly like CPUSPEED on BT.
func jiffies(i int) (busy, idle int64) {
	for k := 0; k < i; k++ {
		// Utilization of interval k: high during 8-interval compute
		// phases, low during 3-interval exchanges.
		var util float64
		if k%11 < 8 {
			util = 0.97
		} else {
			util = 0.40
		}
		busy += int64(math.Round(50 * util))
		idle += int64(math.Round(50 * (1 - util)))
	}
	return busy, idle
}

func TestGoldenCPUSpeed(t *testing.T) {
	tr := &trace{}
	fs := hwmon.NewFS()
	tick := 0
	fs.Register("/proc/stat", hwmon.FuncFile{
		ReadFn: func() (string, error) {
			i := tick
			tick++
			if i >= 30 && i < 33 {
				return "", errors.New("golden: scripted stat fault")
			}
			busy, idle := jiffies(i)
			return fmt.Sprintf("cpu  %d 0 0 %d 0 0 0\n", busy, idle), nil
		},
	})
	port := &traceFreqPort{tr: tr,
		freqs: []int64{2400000, 2200000, 2000000, 1800000, 1600000},
		cur:   2400000,
		fail:  func(call int) bool { return call == 5 }}
	c, err := baseline.NewCPUSpeed(fs, port)
	if err != nil {
		t.Fatal(err)
	}
	// 500 ms interval: evaluations land every 10th simulation step.
	for step := 0; step < 1200; step++ {
		c.OnStep(time.Duration(step) * stepDt)
		if step%10 == 0 {
			tr.addf("step=%04d errs=%d", step, c.Errors())
		}
	}
	checkGolden(t, "cpuspeed", tr)
}

// pidScript is an open-loop load step: an idle plateau, a first-order
// rise toward a hot plateau, and a late drop back to idle so the output
// saturates at both rails.
func pidScript(i int) float64 {
	ripple := 0.6 * math.Sin(float64(i)/3)
	switch {
	case i < 40:
		return 44 + ripple
	case i < 150:
		return 66 - 22*math.Exp(-float64(i-40)/30) + ripple
	default:
		return 45 + ripple
	}
}

func TestGoldenPID(t *testing.T) {
	tr := &trace{}
	r := &scriptReader{
		temp: pidScript,
		fail: func(i int) bool { return (i >= 60 && i < 64) || i == 170 },
	}
	port := &traceFanPort{tr: tr,
		fail: func(call int) bool { return (call >= 20 && call < 23) || call == 100 }}
	p, err := baseline.NewPIDFan(r.read, port)
	if err != nil {
		t.Fatal(err)
	}
	// 250 ms period: samples land every 5th simulation step.
	for step := 0; step < 1600; step++ {
		p.OnStep(time.Duration(step) * stepDt)
		if step%5 == 0 {
			tr.addf("step=%04d errs=%d writes=%d", step, p.Errors(), p.Moves(0))
		}
	}
	checkGolden(t, "pid", tr)
}
