package node

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"thermctl/internal/faults"
	"thermctl/internal/hwmon"
	"thermctl/internal/ipmi"
	"thermctl/internal/workload"
)

func newNode(t *testing.T) *Node {
	t.Helper()
	n, err := New(DefaultConfig("test", 42))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewWiresEverything(t *testing.T) {
	n := newNode(t)
	if n.CPU == nil || n.Fan == nil || n.Thermal == nil || n.FS == nil || n.BMC == nil {
		t.Fatal("missing subsystem")
	}
	// hwmon files exist and read plausibly.
	v, err := n.FS.ReadInt(n.Hwmon.TempInput)
	if err != nil {
		t.Fatal(err)
	}
	if v < 20000 || v > 40000 {
		t.Errorf("boot temp1_input = %d m°C, want near ambient", v)
	}
	// cpufreq files exist.
	f, err := n.FS.ReadInt(n.Cpufreq.CurFreq)
	if err != nil || f != 2400000 {
		t.Errorf("scaling_cur_freq = %d, %v", f, err)
	}
}

func TestSettleIdleOperatingPoint(t *testing.T) {
	n := newNode(t)
	n.Settle(0)
	got := n.TrueDieC()
	if got < 33 || got > 43 {
		t.Errorf("idle settled die = %.1f °C, want high 30s", got)
	}
}

func TestSettleBusyInAutoModeStabilizes(t *testing.T) {
	n := newNode(t)
	n.Settle(1)
	settled := n.TrueDieC()
	// Under the chip's automatic fan curve a busy Athlon64 lands
	// somewhere in the 50s; exact value depends on the curve/RC balance.
	if settled < 45 || settled > 68 {
		t.Errorf("busy auto-mode steady state = %.1f °C, want 45..68", settled)
	}
	// Stepping from the settled state should not drift more than noise.
	n.SetGenerator(workload.Constant(1))
	before := n.TrueDieC()
	for i := 0; i < 400; i++ {
		n.Step(250 * time.Millisecond)
	}
	if d := math.Abs(n.TrueDieC() - before); d > 1.5 {
		t.Errorf("settled state drifted %.2f °C over 100 s", d)
	}
}

func TestStepHeatsUnderLoad(t *testing.T) {
	n := newNode(t)
	n.Settle(0)
	cold := n.TrueDieC()
	n.SetGenerator(workload.NewCPUBurn(nil))
	for i := 0; i < 240; i++ { // 60 s
		n.Step(250 * time.Millisecond)
	}
	if n.TrueDieC() < cold+5 {
		t.Errorf("die rose only %.1f °C after 60 s of cpu-burn", n.TrueDieC()-cold)
	}
}

func TestPowerMeterAccumulates(t *testing.T) {
	n := newNode(t)
	n.Settle(1)
	n.SetGenerator(workload.Constant(1))
	for i := 0; i < 400; i++ {
		n.Step(250 * time.Millisecond)
	}
	avg := n.Meter.AverageW()
	if avg < 95 || avg > 125 {
		t.Errorf("busy node average power = %.1f W, want 95..125 (paper's loaded node ≈100)", avg)
	}
	if metered := n.Meter.EnergyJ() / avg; math.Abs(metered-100) > 1e-9 {
		t.Errorf("metered %v s, want 100 s", metered)
	}
}

func TestInBandDVFSThroughSysfs(t *testing.T) {
	n := newNode(t)
	if err := n.FS.WriteInt(n.Cpufreq.SetSpeed, 1800000); err != nil {
		t.Fatal(err)
	}
	if n.CPU.FreqGHz() != 1.8 {
		t.Errorf("CPU at %v GHz after sysfs write", n.CPU.FreqGHz())
	}
}

func TestInBandFanThroughSysfs(t *testing.T) {
	n := newNode(t)
	if err := n.FS.WriteInt(n.Hwmon.PWMEnable, hwmon.PWMEnableManual); err != nil {
		t.Fatal(err)
	}
	if err := n.FS.WriteInt(n.Hwmon.PWM, 255); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		n.Step(250 * time.Millisecond)
	}
	if n.Fan.RPM() < 4200 {
		t.Errorf("fan RPM = %v after full-duty sysfs write", n.Fan.RPM())
	}
}

// local is an in-process IPMI transport: requests go straight to the
// BMC, on the caller's goroutine.
type local struct{ h ipmi.Handler }

func (l local) Send(req ipmi.Request) (ipmi.Response, error) { return l.h.Handle(req), nil }

func TestOutOfBandFanThroughBMC(t *testing.T) {
	n := newNode(t)
	c := ipmi.NewClient(local{n.BMC})
	if err := c.SetFanManual(true); err != nil {
		t.Fatal(err)
	}
	if err := c.SetFanDuty(90); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		n.Step(250 * time.Millisecond)
	}
	if n.Fan.Duty() < 89 {
		t.Errorf("fan duty = %v after BMC command", n.Fan.Duty())
	}
	// And the in-band view agrees: pwm1_enable reads manual.
	v, err := n.FS.ReadInt(n.Hwmon.PWMEnable)
	if err != nil || v != hwmon.PWMEnableManual {
		t.Errorf("pwm1_enable after OOB switch = %d, %v", v, err)
	}
}

// TestBlockHoldsTheDevices builds a node into a caller's Block and
// checks that every device pointer lands inside it, and that the
// indirect paths — a sysfs pwm1 write, the chip's alarm latch read over
// the bus, the BMC's CPU-temperature sensor — act on those same
// devices, not on copies left behind by a constructor.
func TestBlockHoldsTheDevices(t *testing.T) {
	b := new(Block)
	cfg := DefaultConfig("block", 42)
	cfg.Block = b
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name      string
		got, want any
	}{
		{"Node", n, &b.node},
		{"CPU", n.CPU, &b.cpu},
		{"Fan", n.Fan, &b.fan},
		{"Thermal", n.Thermal, &b.thermal},
		{"Sensor", n.Sensor, &b.sensor},
		{"Chip", n.Chip, &b.chip},
		{"Scaler", n.Scaler, &b.scaler},
		{"Meter", n.Meter, &b.meter},
	} {
		if p.got != p.want {
			t.Errorf("%s is not the block's", p.name)
		}
	}

	if err := n.FS.WriteInt(n.Hwmon.PWMEnable, hwmon.PWMEnableManual); err != nil {
		t.Fatal(err)
	}
	if err := n.FS.WriteInt(n.Hwmon.PWM, 204); err != nil {
		t.Fatal(err)
	}
	if d := b.fan.Duty(); math.Abs(d-80) > 0.5 {
		t.Errorf("block fan duty %v after a pwm1 write of 204, want 80", d)
	}

	// The die idles near 30 °C: a 10 °C high limit trips the block
	// chip's comparator, and the status register must report its latch.
	if err := n.Drv.SetTempLimits(0, 10); err != nil {
		t.Fatal(err)
	}
	b.chip.Step(0)
	if alarm, err := n.Drv.TempAlarm(); err != nil || !alarm {
		t.Errorf("TempAlarm after the block chip latched = %v, %v; want true", alarm, err)
	}

	b.sensor.AttachInjector(faults.Static(faults.State{SensorSpikeC: 30}))
	c := ipmi.NewClient(local{n.BMC})
	temp, err := c.ReadSensor(SensorCPUTemp)
	if err != nil {
		t.Fatal(err)
	}
	if want := n.TrueDieC() + 30; math.Abs(temp-want) > 1 {
		t.Errorf("BMC CPU temp %v, want the block sensor's spiked %v", temp, want)
	}
}

func TestBMCSensorsReadPlausibly(t *testing.T) {
	n := newNode(t)
	n.Settle(0.5)
	c := ipmi.NewClient(local{n.BMC})
	temp, err := c.ReadSensor(SensorCPUTemp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(temp-n.TrueDieC()) > 1 {
		t.Errorf("BMC temp %v vs true %v", temp, n.TrueDieC())
	}
	if w, err := c.ReadSensor(SensorSystemW); err != nil || w < 40 || w > 130 {
		t.Errorf("BMC system power = %v, %v", w, err)
	}
	if a, err := c.ReadSensor(SensorAmbientC); err != nil || a < 20 || a > 35 {
		t.Errorf("BMC ambient = %v, %v", a, err)
	}
}

func TestSensorTracksPhysicalTemp(t *testing.T) {
	n := newNode(t)
	n.Settle(1)
	read := n.Sensor.Read()
	if math.Abs(read-n.TrueDieC()) > 1 {
		t.Errorf("sensor %v vs physical %v", read, n.TrueDieC())
	}
}

func TestAmbientOffset(t *testing.T) {
	cfg := DefaultConfig("hot-spot", 1)
	cfg.AmbientOffsetC = 6
	hot, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cool := newNode(t)
	hot.Settle(0)
	cool.Settle(0)
	if d := hot.TrueDieC() - cool.TrueDieC(); d < 4 {
		t.Errorf("ambient offset moved idle temp by only %.1f °C", d)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		n, err := New(DefaultConfig("d", 7))
		if err != nil {
			t.Fatal(err)
		}
		n.Settle(0)
		n.SetGenerator(workload.NewCPUBurn(nil))
		for i := 0; i < 200; i++ {
			n.Step(250 * time.Millisecond)
		}
		return n.Sensor.Read()
	}
	if run() != run() {
		t.Error("identical configs diverged")
	}
}

func TestThermalProtectionTripsAndReleases(t *testing.T) {
	cfg := DefaultConfig("prot", 31)
	cfg.ProtectC = 55 // low trip point so cpu-burn at low duty reaches it
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	// Fan pinned low: the die will run past the trip point.
	if err := n.FS.WriteInt(n.Hwmon.PWMEnable, hwmon.PWMEnableManual); err != nil {
		t.Fatal(err)
	}
	if err := n.FS.WriteInt(n.Hwmon.PWM, 26); err != nil { // ≈10%
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	for i := 0; i < 1600; i++ { // 400 s
		n.Step(250 * time.Millisecond)
	}
	if n.Emergencies() == 0 {
		t.Fatal("trip point never reached despite the pinned fan")
	}
	if n.ProtectedTime() == 0 {
		t.Error("no protected time accumulated")
	}
	// While protected the hardware clamps to the lowest P-state.
	if n.Protected() && n.CPU.FreqGHz() != 1.0 {
		t.Errorf("protected but at %v GHz", n.CPU.FreqGHz())
	}
	// At 1.0 GHz with even a weak fan the die cools below 55-5=50 and
	// protection must eventually release.
	for i := 0; i < 2400 && n.Protected(); i++ {
		n.Step(250 * time.Millisecond)
	}
	if n.Protected() {
		t.Error("protection never released at the lowest P-state")
	}
}

func TestProtectionOverridesDaemonWrites(t *testing.T) {
	cfg := DefaultConfig("prot2", 33)
	cfg.ProtectC = 55
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	_ = n.FS.WriteInt(n.Hwmon.PWMEnable, hwmon.PWMEnableManual)
	_ = n.FS.WriteInt(n.Hwmon.PWM, 26)
	n.SetGenerator(workload.NewCPUBurn(nil))
	for i := 0; i < 1600 && !n.Protected(); i++ {
		n.Step(250 * time.Millisecond)
	}
	if !n.Protected() {
		t.Skip("did not trip")
	}
	// A daemon writes full speed; the silicon clamps it back next step.
	if err := n.FS.WriteInt(n.Cpufreq.SetSpeed, 2400000); err != nil {
		t.Fatal(err)
	}
	n.Step(250 * time.Millisecond)
	if n.Protected() && n.CPU.FreqGHz() != 1.0 {
		t.Errorf("daemon write survived hardware protection: %v GHz", n.CPU.FreqGHz())
	}
}

func TestFanFailureDetectableAndHot(t *testing.T) {
	n := newNode(t)
	n.Settle(1)
	before := n.TrueDieC()
	n.Fan.SetFailed(true)
	for i := 0; i < 400; i++ { // 100 s
		n.Step(250 * time.Millisecond)
	}
	if n.Fan.RPM() > 1 {
		t.Errorf("failed fan still spinning at %v RPM", n.Fan.RPM())
	}
	// The tach stall is visible in-band and out-of-band.
	rpm, err := n.FS.ReadInt(n.Hwmon.FanInput)
	if err != nil || rpm != 0 {
		t.Errorf("fan1_input = %d, %v; want 0 for a stalled fan", rpm, err)
	}
	if n.TrueDieC() < before+4 {
		t.Errorf("die rose only %.1f °C after fan failure", n.TrueDieC()-before)
	}
	// Recovery: un-fail and the rotor spins back up.
	n.Fan.SetFailed(false)
	for i := 0; i < 40; i++ {
		n.Step(250 * time.Millisecond)
	}
	if n.Fan.RPM() < 100 {
		t.Error("fan did not recover after repair")
	}
}

func TestACPIThrottlingMounted(t *testing.T) {
	n := newNode(t)
	if err := n.FS.WriteFile(n.ACPI.Throttling, "4"); err != nil {
		t.Fatal(err)
	}
	if got := n.CPU.Throttle(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("throttle = %v after T4 write", got)
	}
}

// stepDt is the cluster's step (cluster.DefaultDt), the dt every node
// steps at in a fleet run.
const stepDt = 50 * time.Millisecond

func BenchmarkNodeStep(b *testing.B) {
	n, err := New(DefaultConfig("bench", 1))
	if err != nil {
		b.Fatal(err)
	}
	n.SetGenerator(workload.Constant(0.8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(stepDt)
	}
}

// BenchmarkNodeStepFleetAuto prices one node step in the fleet-auto
// shape: the chip's auto curve driving the fan, under uniform random
// demand redrawn once per simulated second and built through
// workload.Spec as a scenario builds it, so the generator is the
// per-node memo of its held value.
func BenchmarkNodeStepFleetAuto(b *testing.B) {
	n, err := New(DefaultConfig("bench", 1))
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Spec{Kind: workload.KindRandom, Dist: "uniform", Min: 0.1, Max: 1, HoldMS: 1000}
	g, err := spec.Build(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	n.SetGenerator(g)
	n.Settle(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(stepDt)
	}
}

func TestStepAllocationFree(t *testing.T) {
	for _, manual := range []bool{false, true} {
		n, err := New(DefaultConfig("alloc", 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Drv.SetManual(manual); err != nil {
			t.Fatal(err)
		}
		n.SetGenerator(workload.Constant(0.8))
		n.Settle(0.8)
		if allocs := testing.AllocsPerRun(400, func() { n.Step(stepDt) }); allocs != 0 {
			t.Errorf("manual=%v: Step allocates %v times per call, want 0", manual, allocs)
		}
	}
}

func TestNodeAccountsResidency(t *testing.T) {
	// The node credits residency on every step, so an end-to-end run's
	// time_in_state sums to the elapsed time.
	n, err := New(DefaultConfig("tis", 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		n.Step(250 * time.Millisecond)
	}
	body, err := n.FS.ReadFile(n.Cpufreq.TimeInState)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var khz, ticks int64
		if _, err := fmt.Sscanf(line, "%d %d", &khz, &ticks); err != nil {
			t.Fatalf("bad line %q", line)
		}
		total += ticks
	}
	if total != 1000 { // 10 s = 1000 ticks
		t.Errorf("total residency %d ticks, want 1000", total)
	}
}
