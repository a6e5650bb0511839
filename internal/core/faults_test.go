package core

import (
	"testing"
	"time"

	"thermctl/internal/faults"
	"thermctl/internal/ipmi"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

// Fault-injection tests: the control plane must degrade gracefully when
// the i2c bus glitches — count errors, keep controlling on the samples
// that do arrive, never wedge.

func TestFanControlSurvivesFlakyBus(t *testing.T) {
	n, err := node.New(node.DefaultConfig("flaky", 83))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	// 20% of i2c transactions fail: duty writes and mode flips through
	// the ADT7467 driver will intermittently error.
	n.Bus.AttachInjector(faults.Static(faults.State{I2CFaultRate: 0.20}), rng.New(7))

	ctl, err := NewController(DefaultConfig(50),
		SysfsTemp(n.FS, n.Hwmon.TempInput), // hwmon path: unaffected by the bus
		ActuatorBinding{Actuator: NewFanActuator(NewSysfsFanPort(n.FS, n.Hwmon), 100)})
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 2400; i++ {
		n.Step(dt)
		ctl.OnStep(n.Elapsed())
	}
	if ctl.Binding().Errors() == 0 {
		t.Error("no errors counted despite 20% bus fault rate")
	}
	// Control must still have worked through the successful writes.
	if n.Fan.Duty() < 20 {
		t.Errorf("fan at %.1f%% — control collapsed under bus faults", n.Fan.Duty())
	}
	if n.TrueDieC() > 60 {
		t.Errorf("die at %.1f °C — control ineffective under bus faults", n.TrueDieC())
	}
}

func TestTDVFSSurvivesSensorDropouts(t *testing.T) {
	// One read in five fails outright; the daemon must skip those
	// samples (the window sees fewer rounds) yet still trigger on a
	// genuinely hot, rising die.
	n, err := node.New(node.DefaultConfig("dropout", 89))
	if err != nil {
		t.Fatal(err)
	}
	act, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	flaky := func() (float64, error) {
		i++
		if i%5 == 0 {
			return 0, errTest
		}
		// A clean rise through the threshold.
		v := 48 + 0.05*float64(i)
		if v > 58 {
			v = 58
		}
		return v, nil
	}
	d, err := NewTDVFS(DefaultTDVFSConfig(50), flaky, act)
	if err != nil {
		t.Fatal(err)
	}
	period := 250 * time.Millisecond
	for s := 1; s <= 600; s++ {
		d.OnStep(time.Duration(s) * period)
	}
	if d.Binding().Errors() == 0 {
		t.Error("no read errors counted")
	}
	if d.Downscales() == 0 {
		t.Error("tDVFS never triggered despite the sustained rise")
	}
	if n.CPU.FreqGHz() >= 2.4 {
		t.Errorf("frequency still %.1f GHz", n.CPU.FreqGHz())
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "injected sensor fault" }

func TestBMCPathSurvivesFlakyBus(t *testing.T) {
	// The BMC's fan commands ride the same i2c bus; with injected
	// faults its completion codes must surface as errors, not panics
	// or silent success.
	n, err := node.New(node.DefaultConfig("bmcflaky", 97))
	if err != nil {
		t.Fatal(err)
	}
	n.Bus.AttachInjector(faults.Static(faults.State{I2CFaultRate: 1.0}), rng.New(3)) // every transaction fails
	port := &IPMIFanPort{C: clientFor(n)}
	if err := port.SetDutyPercent(50); err == nil {
		t.Error("fan command succeeded over a dead bus")
	}
	n.Bus.AttachInjector(nil, nil)
	if err := port.SetDutyPercent(50); err != nil {
		t.Errorf("fan command failed after bus recovered: %v", err)
	}
}

// clientFor builds a local IPMI client for a node (helper shared by
// fault tests).
func clientFor(n *node.Node) *ipmi.Client {
	return ipmi.NewClient(ipmi.Local{H: n.BMC})
}
