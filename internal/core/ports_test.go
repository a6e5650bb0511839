package core

import (
	"math"
	"testing"

	"thermctl/internal/ipmi"
	"thermctl/internal/node"
)

func newTestNode(t *testing.T) *node.Node {
	t.Helper()
	n, err := node.New(node.DefaultConfig("core-test", 11))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSysfsTempReader(t *testing.T) {
	n := newTestNode(t)
	n.Settle(0)
	read := SysfsTemp(n.FS, n.Hwmon.TempInput)
	v, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-n.TrueDieC()) > 1 {
		t.Errorf("sysfs temp %v vs physical %v", v, n.TrueDieC())
	}
	bad := SysfsTemp(n.FS, "/nope")
	if _, err := bad(); err == nil {
		t.Error("missing path read succeeded")
	}
}

// TestSysfsPortsAllocationFree pins the in-band port methods a control
// round calls at zero allocations after warm-up: each resolves its
// attribute once, at wiring time. The ACPI throttling actuator and
// CPUSPEED's /proc/stat read are left out on purpose: both speak a text
// file (the throttling table, kernel-formatted jiffies) that is
// formatted and parsed on every access, as on a real host.
func TestSysfsPortsAllocationFree(t *testing.T) {
	n := newTestNode(t)
	n.Settle(0)
	read := SysfsTemp(n.FS, n.Hwmon.TempInput)
	fan := NewSysfsFanPort(n.FS, n.Hwmon)
	freq := NewSysfsFreqPort(n.FS, n.Cpufreq)
	freqs, err := freq.AvailableKHz()
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	roots := []struct {
		name string
		fn   func()
	}{
		{"SysfsTemp", func() { _, err := read(); check(err) }},
		{"SysfsFanPort.SetDutyPercent", func() { check(fan.SetDutyPercent(60)) }},
		{"SysfsFreqPort.SetKHz", func() { check(freq.SetKHz(freqs[len(freqs)-1])) }},
	}
	for _, r := range roots {
		r.fn() // warm-up: the fan port arms pwm1_enable on first use
		if allocs := testing.AllocsPerRun(200, r.fn); allocs != 0 {
			t.Errorf("%s allocates %v per call, want 0", r.name, allocs)
		}
	}
}

func TestIPMITempReader(t *testing.T) {
	n := newTestNode(t)
	n.Settle(0)
	read := ipmiTemp(ipmi.NewClient(ipmi.Local{H: n.BMC}), node.SensorCPUTemp)
	v, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-n.TrueDieC()) > 1 {
		t.Errorf("ipmi temp %v vs physical %v", v, n.TrueDieC())
	}
}

func TestSysfsFanPort(t *testing.T) {
	n := newTestNode(t)
	p := NewSysfsFanPort(n.FS, n.Hwmon)
	if err := p.SetDutyPercent(60); err != nil {
		t.Fatal(err)
	}
	if d := n.Fan.Duty(); math.Abs(d-60) > 1 {
		t.Errorf("fan duty = %v, want ≈60", d)
	}
	got, err := n.FS.ReadInt(n.Hwmon.PWM)
	if err != nil || math.Abs(float64(got)*100/255-60) > 1 {
		t.Errorf("pwm1 readback = %v, %v", got, err)
	}
}

func TestIPMIFanPort(t *testing.T) {
	n := newTestNode(t)
	p := &IPMIFanPort{C: ipmi.NewClient(ipmi.Local{H: n.BMC})}
	if err := p.SetDutyPercent(35); err != nil {
		t.Fatal(err)
	}
	if d := n.Fan.Duty(); math.Abs(d-35) > 1 {
		t.Errorf("fan duty = %v, want ≈35", d)
	}
}

func TestFanActuatorModeMapping(t *testing.T) {
	n := newTestNode(t)
	act := NewFanActuator(NewSysfsFanPort(n.FS, n.Hwmon), 75)
	if act.NumModes() != 100 {
		t.Fatalf("NumModes = %d", act.NumModes())
	}
	if d := act.DutyForMode(0); d != 1 {
		t.Errorf("mode 0 duty = %v, want 1 (MinDuty)", d)
	}
	if d := act.DutyForMode(99); d != 75 {
		t.Errorf("top mode duty = %v, want 75 (MaxDuty cap)", d)
	}
	// Monotone in mode.
	prev := -1.0
	for m := 0; m < 100; m++ {
		d := act.DutyForMode(m)
		if d <= prev {
			t.Fatalf("duty not monotone at mode %d", m)
		}
		prev = d
	}
	// Clamping.
	if act.DutyForMode(-5) != 1 || act.DutyForMode(1000) != 75 {
		t.Error("DutyForMode does not clamp")
	}
}

func TestFanActuatorApplyCurrentRoundTrip(t *testing.T) {
	n := newTestNode(t)
	act := NewFanActuator(NewSysfsFanPort(n.FS, n.Hwmon), 100)
	for _, m := range []int{0, 25, 50, 99} {
		if err := act.Apply(m); err != nil {
			t.Fatal(err)
		}
		// 8-bit PWM register quantization.
		if got, want := n.Fan.Duty(), act.DutyForMode(m); math.Abs(got-want) > 0.5 {
			t.Errorf("Apply(%d): fan duty %v, want ≈%v", m, got, want)
		}
	}
}

func TestDVFSActuator(t *testing.T) {
	n := newTestNode(t)
	act, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	if act.NumModes() != 5 {
		t.Fatalf("NumModes = %d, want 5 P-states", act.NumModes())
	}
	if f := act.FreqForMode(0); f != 2400000 {
		t.Errorf("mode 0 = %d kHz, want 2400000 (least effective = fastest)", f)
	}
	if f := act.FreqForMode(4); f != 1000000 {
		t.Errorf("mode 4 = %d kHz, want 1000000 (most effective = slowest)", f)
	}
	if err := act.Apply(2); err != nil {
		t.Fatal(err)
	}
	if n.CPU.FreqGHz() != 2.0 {
		t.Errorf("CPU at %v GHz after Apply(2)", n.CPU.FreqGHz())
	}
	if f, err := n.FS.ReadInt(n.Cpufreq.CurFreq); err != nil || f != act.FreqForMode(2) {
		t.Errorf("scaling_cur_freq = %d, %v; want %d", f, err, act.FreqForMode(2))
	}
}

func TestDVFSActuatorClamping(t *testing.T) {
	n := newTestNode(t)
	act, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	if act.FreqForMode(-1) != 2400000 || act.FreqForMode(99) != 1000000 {
		t.Error("FreqForMode does not clamp")
	}
}

// ipmiTemp reads a BMC sensor — the out-of-band temperature path.
func ipmiTemp(c *ipmi.Client, sensorNum uint8) TempReader {
	return func() (float64, error) { return c.ReadSensor(sensorNum) }
}
