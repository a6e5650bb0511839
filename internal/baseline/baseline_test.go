package baseline

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/core"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

func newTestNode(t *testing.T) *node.Node {
	t.Helper()
	n, err := node.New(node.DefaultConfig("baseline", 21))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestStaticFanDutyLine(t *testing.T) {
	if d := staticDuty(30, 100); d != 10 {
		t.Errorf("Duty(30) = %v, want PWMmin 10", d)
	}
	if d := staticDuty(60, 100); math.Abs(d-55) > 0.5 {
		t.Errorf("Duty(60) = %v, want ≈55 (linear midpoint)", d)
	}
	if d := staticDuty(90, 100); d != 100 {
		t.Errorf("Duty(90) = %v, want 100", d)
	}
}

func TestStaticFanCap(t *testing.T) {
	if d := staticDuty(90, 75); d != 75 {
		t.Errorf("capped Duty(90) = %v, want 75", d)
	}
}

func TestStaticFanValidation(t *testing.T) {
	n := newTestNode(t)
	read := core.SysfsTemp(n.FS, n.Hwmon.TempInput)
	port := core.NewSysfsFanPort(n.FS, n.Hwmon)
	if _, err := NewStaticFan(75, nil, port); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := NewStaticFan(75, read, nil); err == nil {
		t.Error("nil port accepted")
	}
}

func TestStaticFanFollowsTemperature(t *testing.T) {
	n := newTestNode(t)
	n.Settle(0)
	s, err := NewStaticFan(100,
		core.SysfsTemp(n.FS, n.Hwmon.TempInput),
		core.NewSysfsFanPort(n.FS, n.Hwmon))
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 1200; i++ {
		n.Step(dt)
		s.OnStep(n.Elapsed())
	}
	// At the settled temperature the duty must match the line.
	want := staticDuty(n.Sensor.Read(), 100)
	if got := n.Fan.Duty(); math.Abs(got-want) > 3 {
		t.Errorf("fan duty %v, static line says %v", got, want)
	}
	if s.Errors() != 0 {
		t.Errorf("errors: %d", s.Errors())
	}
}

func TestConstantFanPins(t *testing.T) {
	n := newTestNode(t)
	c := NewConstantFan(75, core.NewSysfsFanPort(n.FS, n.Hwmon))
	c.OnStep(0)
	c.OnStep(time.Second)
	if d := n.Fan.Duty(); math.Abs(d-75) > 1 {
		t.Errorf("fan duty = %v, want 75", d)
	}
}

func TestCPUSpeedValidation(t *testing.T) {
	n := newTestNode(t)
	port := core.NewSysfsFreqPort(n.FS, n.Cpufreq)
	if _, err := NewCPUSpeed(nil, port); err == nil {
		t.Error("nil fs accepted")
	}
	if _, err := NewCPUSpeed(n.FS, nil); err == nil {
		t.Error("nil freq port accepted")
	}
}

func TestCPUSpeedStaysFastUnderFullLoad(t *testing.T) {
	n := newTestNode(t)
	cs, err := NewCPUSpeed(n.FS,
		core.NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.Constant(1))
	dt := 250 * time.Millisecond
	for i := 0; i < 240; i++ {
		n.Step(dt)
		cs.OnStep(n.Elapsed())
	}
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("full load: frequency %v GHz, want 2.4", n.CPU.FreqGHz())
	}
	if n.CPU.Transitions() != 0 {
		t.Errorf("full load caused %d transitions", n.CPU.Transitions())
	}
}

func TestCPUSpeedStepsDownWhenIdle(t *testing.T) {
	n := newTestNode(t)
	cs, err := NewCPUSpeed(n.FS,
		core.NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.Constant(0.05))
	dt := 250 * time.Millisecond
	for i := 0; i < 240; i++ {
		n.Step(dt)
		cs.OnStep(n.Elapsed())
	}
	if n.CPU.FreqGHz() != 1.0 {
		t.Errorf("idle: frequency %v GHz, want stepped down to 1.0", n.CPU.FreqGHz())
	}
}

func TestCPUSpeedJumpsToMaxOnLoad(t *testing.T) {
	n := newTestNode(t)
	cs, err := NewCPUSpeed(n.FS,
		core.NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	// Idle first, then sudden full load: one interval at high
	// utilization must restore the maximum frequency directly.
	n.SetGenerator(workload.Step{Before: 0.05, After: 1.0, At: 30 * time.Second})
	dt := 250 * time.Millisecond
	transAtLoadOnset := uint64(0)
	for i := 0; i < 240; i++ {
		n.Step(dt)
		cs.OnStep(n.Elapsed())
		if n.Elapsed() == 30*time.Second {
			transAtLoadOnset = n.CPU.Transitions()
		}
	}
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("after load onset: %v GHz, want 2.4", n.CPU.FreqGHz())
	}
	if n.CPU.Transitions() != transAtLoadOnset+1 {
		t.Errorf("up-jump took %d transitions, want exactly 1 (straight to max)",
			n.CPU.Transitions()-transAtLoadOnset)
	}
}

// TestCPUSpeedChurnsOnParallelWorkload demonstrates the Table 1 foil:
// BT's compute/communicate phases make the utilization heuristic change
// frequency over and over, while the workload's thermal demand never
// required it.
func TestCPUSpeedChurnsOnParallelWorkload(t *testing.T) {
	c, err := cluster.New(2, cluster.DefaultDt, 33)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(0)
	for i, n := range c.Nodes {
		cs, err := NewCPUSpeed(n.FS,
			core.NewSysfsFreqPort(n.FS, n.Cpufreq))
		if err != nil {
			t.Fatal(err)
		}
		c.AddNodeController(i, cs)
	}
	// Communication long enough that most evaluation intervals see the
	// dip (real BT's longer exchanges do this intermittently).
	prog := workload.Uniform("mini-BT", 40, workload.Iteration{
		ComputeGC: 2.2128, ComputeUtil: 1.0, CommSec: 0.25, CommUtil: 0.10,
	})
	res := c.RunProgram(prog, 0)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	trans := c.Nodes[0].CPU.Transitions()
	// 40 iterations ≈ 45 s; the paper sees ≈0.5 changes/s over BT.
	if trans < 8 {
		t.Errorf("CPUSPEED made only %d transitions over 40 iterations, want ≥8", trans)
	}
}

func BenchmarkCPUSpeedOnStep(b *testing.B) {
	n, err := node.New(node.DefaultConfig("bench", 1))
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewCPUSpeed(n.FS,
		core.NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		b.Fatal(err)
	}
	n.SetGenerator(workload.Constant(0.8))
	dt := 250 * time.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(dt)
		cs.OnStep(n.Elapsed())
	}
}

// fieldsProcStat is the slice-building parse parseProcStat replaced:
// the reference its sums and errors must match exactly.
func fieldsProcStat(line string) (busy, total float64, err error) {
	fields := strings.Fields(line)
	if len(fields) < 5 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("baseline: malformed /proc/stat %q", line)
	}
	var vals []float64
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("baseline: bad jiffy count %q", f)
		}
		vals = append(vals, v)
	}
	for i, v := range vals {
		total += v
		if i != 3 {
			busy += v
		}
	}
	return busy, total, nil
}

// procStatLines are /proc/stat lines with the error each must give
// ("" for none): TestParseProcStat's table and FuzzParseProcStat's
// seed corpus.
var procStatLines = []struct {
	line    string
	wantErr string
}{
	{"cpu  4705 150 1120 16250 520 0 7", ""},
	{"cpu 0.1 0.2 0.30000000000000004 1e3", ""},
	// Extra fields (steal, guest, guest_nice) are summed too.
	{"cpu 4705 150 1120 16250 520 0 7 3 0 0", ""},
	{"\tcpu\t1.5  2.25\v3\f4 \r5  ", ""},
	{"cpu 1 2 3 4 5", ""},
	{"", "malformed"},
	{"cpu", "malformed"},
	{"cpu 1 2 3", "malformed"},
	{"cpu0 1 2 3 4 5", "malformed"},
	{"intr 1 2 3 4 5", "malformed"},
	// A short line is malformed even with a non-numeric count.
	{"cpu 1 x 3", "malformed"},
	{"cpu 1 2 x 4 5", "bad jiffy count \"x\""},
	{"cpu 1 2 3 4 5 y z", "bad jiffy count \"y\""},
	{"cpu 1 2 3 0x1p-2 5", ""},
}

// sameProcStat reports how parseProcStat's result for line differs
// from fieldsProcStat's: sums compared by Float64bits, errors by their
// text. Empty when they agree.
func sameProcStat(line string) string {
	busy, total, err := parseProcStat(line)
	rb, rt, rerr := fieldsProcStat(line)
	switch {
	case (err == nil) != (rerr == nil):
		return fmt.Sprintf("err %v, reference %v", err, rerr)
	case err != nil && err.Error() != rerr.Error():
		return fmt.Sprintf("err %q, reference %q", err, rerr)
	case math.Float64bits(busy) != math.Float64bits(rb) || math.Float64bits(total) != math.Float64bits(rt):
		return fmt.Sprintf("busy, total = %v, %v; reference %v, %v", busy, total, rb, rt)
	}
	return ""
}

func TestParseProcStat(t *testing.T) {
	for _, tc := range procStatLines {
		if diff := sameProcStat(tc.line); diff != "" {
			t.Errorf("%q: %s", tc.line, diff)
		}
		_, _, err := parseProcStat(tc.line)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%q: err %v, want nil", tc.line, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%q: err %v, want one containing %q", tc.line, err, tc.wantErr)
		}
	}
}

// FuzzParseProcStat checks the allocation-free scan against the
// slice-building reference on arbitrary lines: identical sums, bit for
// bit, and identical error text.
func FuzzParseProcStat(f *testing.F) {
	for _, tc := range procStatLines {
		f.Add(tc.line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if diff := sameProcStat(line); diff != "" {
			t.Fatalf("%q: %s", line, diff)
		}
	})
}

func TestParseProcStatAllocationFree(t *testing.T) {
	line := "cpu  4705 150 1120 16250 520 0 7 3 0 0"
	if n := testing.AllocsPerRun(100, func() { _, _, _ = parseProcStat(line) }); n != 0 {
		t.Fatalf("parseProcStat allocates %v times per call, want 0", n)
	}
}
