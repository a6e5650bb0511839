package thermctl

// The benchmark harness regenerates every table and figure of the
// paper's evaluation and reports the headline observables as benchmark
// metrics, so `go test -bench . -benchmem` reproduces the whole
// evaluation in one command. One benchmark per table/figure, plus
// ablation benches for the design choices DESIGN.md calls out.
//
// Absolute values are the simulated platform's; the shapes (who wins,
// by roughly what factor, where crossovers fall) track the paper. See
// EXPERIMENTS.md for the side-by-side.

import (
	"testing"
	"time"

	"thermctl/internal/baseline"
	"thermctl/internal/core"
	"thermctl/internal/core/ctlarray"
	"thermctl/internal/core/window"
	"thermctl/internal/experiment"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

// BenchmarkFig2ThermalTypes regenerates Figure 2: the thermal-behaviour
// profile and its classification into sudden / gradual / jitter.
func BenchmarkFig2ThermalTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig2(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.SuddenInOnset), "sudden-rounds")
			b.ReportMetric(float64(r.JitterInJitter), "jitter-rounds")
			b.ReportMetric(float64(r.GradualInRamp), "gradual-rounds")
			b.ReportMetric(float64(r.FalseSuddenInJitter), "false-sudden")
		}
	}
}

// BenchmarkFig5FanPp regenerates Figure 5: dynamic fan control under
// cpu-burn at Pp ∈ {75, 50, 25}. Paper: average duty 36/53/70 and
// monotonically lower temperature with smaller Pp.
func BenchmarkFig5FanPp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig5(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pp := range []int{75, 50, 25} {
				row := r.Row(pp)
				b.ReportMetric(row.AvgDuty, "duty-pp"+itoa(pp))
				b.ReportMetric(row.AvgTempC, "degC-pp"+itoa(pp))
			}
		}
	}
}

// BenchmarkFig6FanMethods regenerates Figure 6: dynamic vs traditional
// static vs constant fan control on BT.B.4. Paper: dynamic proactively
// exceeds 45% duty (static: 32%), stabilizes sooner and lower;
// constant-75% is coldest but costliest.
func BenchmarkFig6FanMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig6(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, m := range []string{"dynamic", "static", "constant"} {
				row := r.Row(m)
				b.ReportMetric(row.SteadyC, "degC-"+m)
				b.ReportMetric(row.PeakDuty, "peakduty-"+m)
				b.ReportMetric(row.StabilizeS, "settle-s-"+m)
			}
		}
	}
}

// BenchmarkFig7MaxPWM regenerates Figure 7: the maximum-duty sweep.
// Paper: ≈8 °C between 25% and 100% caps; 50% ≈ 75%.
func BenchmarkFig7MaxPWM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig7(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, cap := range []float64{25, 50, 75, 100} {
				b.ReportMetric(r.Row(cap).SteadyC, "degC-cap"+itoa(int(cap)))
			}
			b.ReportMetric(r.Spread(25, 100), "spread-25v100")
			b.ReportMetric(r.Spread(50, 75), "spread-50v75")
		}
	}
}

// BenchmarkFig8TDVFS regenerates Figure 8: tDVFS coupled with the
// traditional static fan on LU. Paper: scales down only when the
// average temperature is consistently above 51 °C, restores afterwards,
// ignores short spikes.
func BenchmarkFig8TDVFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig8(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Downscales), "downscales")
			b.ReportMetric(float64(r.Upscales), "restores")
			b.ReportMetric(r.MinFreqGHz, "min-GHz")
			b.ReportMetric(r.EndFreqGHz, "end-GHz")
			b.ReportMetric(r.ExecS, "exec-s")
		}
	}
}

// BenchmarkFig9TDVFSvsCPUSPEED regenerates Figure 9: under a weak fan,
// CPUSPEED lets the temperature keep rising while tDVFS stabilizes it.
func BenchmarkFig9TDVFSvsCPUSPEED(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig9(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, d := range []string{"tDVFS", "CPUSPEED"} {
				row := r.Row(d)
				b.ReportMetric(row.FinalC, "final-degC-"+d)
				b.ReportMetric(float64(row.Transitions), "freqchanges-"+d)
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: performance and power of BT
// under CPUSPEED vs tDVFS across fan capabilities.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table1(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, daemon := range []string{"CPUSPEED", "tDVFS"} {
				for _, cap := range []float64{75, 50, 25} {
					cell := r.Cell(daemon, cap)
					suffix := daemon + itoa(int(cap))
					b.ReportMetric(float64(cell.FreqChanges), "chg-"+suffix)
					b.ReportMetric(cell.ExecS, "s-"+suffix)
					b.ReportMetric(cell.AvgPowerW, "W-"+suffix)
				}
			}
		}
	}
}

// BenchmarkFig10Hybrid regenerates Figure 10: hybrid fan+DVFS control
// with one Pp on both knobs. Paper: smaller Pp gives lower temperature
// and a later tDVFS trigger with a small performance spread.
func BenchmarkFig10Hybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig10(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pp := range []int{75, 50, 25} {
				row := r.Row(pp)
				b.ReportMetric(row.AvgTempC, "degC-pp"+itoa(pp))
				b.ReportMetric(row.TriggeredS, "trigger-s-pp"+itoa(pp))
				b.ReportMetric(row.ExecS, "exec-s-pp"+itoa(pp))
			}
			b.ReportMetric(r.PerfSpreadPct(), "perf-spread-pct")
		}
	}
}

// BenchmarkExtFanFailure runs the fan-failure extension: a seized fan
// under cpu-burn with and without tDVFS. The rescue avoids the hardware
// trip point entirely.
func BenchmarkExtFanFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.FanFailure(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, cfg := range []string{"unprotected", "tDVFS"} {
				row := r.Row(cfg)
				b.ReportMetric(float64(row.Emergencies), "emerg-"+cfg)
				b.ReportMetric(row.PeakC, "peak-degC-"+cfg)
			}
		}
	}
}

// BenchmarkExtScaling runs the future-work scaling study: the unified
// controller on clusters of 2..16 nodes.
func BenchmarkExtScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Scaling(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.ReportMetric(row.OverheadPct, "overhead-pct-n"+itoa(row.Nodes))
			}
		}
	}
}

// BenchmarkExtRackStudy runs the rack-recirculation extension: fixed
// equal fan duty vs per-node unified control on a vertically coupled
// rack.
func BenchmarkExtRackStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.RackStudy(experiment.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Fixed[3].DieC, "fixed-top-degC")
			b.ReportMetric(r.Unified[3].DieC, "unified-top-degC")
			b.ReportMetric(r.Unified[3].FanDuty-r.Unified[0].FanDuty, "duty-compensation")
		}
	}
}

// --- Ablation benches: the design choices DESIGN.md calls out ---

// benchFanRun runs cpu-burn under a controller with the given window
// configuration and returns steady temperature and mode-change count.
func benchFanRun(b *testing.B, win window.Config, useL2 bool) (steadyC float64, moves uint64) {
	b.Helper()
	n, err := node.New(node.DefaultConfig("ablate", 17))
	if err != nil {
		b.Fatal(err)
	}
	n.Settle(0)
	cfg := core.DefaultConfig(50)
	cfg.Window = win
	if !useL2 {
		// Degenerate level two: with a 2-deep FIFO of adjacent rounds,
		// Δt_L2 barely differs from Δt_L1 — effectively L1-only.
		cfg.Window.L2Size = 2
	}
	ctl, err := core.NewController(cfg,
		core.SysfsTemp(n.FS, n.Hwmon.TempInput),
		core.NewFanActuator(core.NewSysfsFanPort(n.FS, n.Hwmon), 100))
	if err != nil {
		b.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	for i := 0; i < 1200; i++ {
		n.Step(250 * time.Millisecond)
		ctl.Binding().OnStep(n.Elapsed())
	}
	return n.TrueDieC(), ctl.Moves(0)
}

// BenchmarkAblateL1WindowSize sweeps the level-one window size. The
// paper found 4 entries enough to capture sudden change while
// nullifying jitter; smaller windows chase noise (more mode changes),
// larger ones react late.
func BenchmarkAblateL1WindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, l1 := range []int{2, 4, 8} {
			steady, moves := benchFanRun(b, window.Config{L1Size: l1, L2Size: 5}, true)
			if i == 0 {
				b.ReportMetric(steady, "degC-L1."+itoa(l1))
				b.ReportMetric(float64(moves), "moves-L1."+itoa(l1))
			}
		}
	}
}

// BenchmarkAblateL2Depth compares the full two-level window against an
// effectively L1-only controller: without the long horizon, gradual
// drift goes untracked until it accumulates into sudden-scale changes.
func BenchmarkAblateL2Depth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, l2 := range []int{2, 5, 10} {
			steady, moves := benchFanRun(b, window.Config{L1Size: 4, L2Size: l2}, true)
			if i == 0 {
				b.ReportMetric(steady, "degC-L2."+itoa(l2))
				b.ReportMetric(float64(moves), "moves-L2."+itoa(l2))
			}
		}
	}
}

// BenchmarkAblateArrayBound sweeps N, the control-array bound, for the
// DVFS actuator (5 physical modes). N above the mode count buys index
// resolution; the paper allows N ≥ physical modes.
func BenchmarkAblateArrayBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{5, 10, 20} {
			arr, err := ctlarray.New(n, 5, 50)
			if err != nil {
				b.Fatal(err)
			}
			distinct := 0
			prev := -1
			for c := 0; c < arr.Len(); c++ {
				if arr.Mode(c) != prev {
					distinct++
					prev = arr.Mode(c)
				}
			}
			if i == 0 {
				b.ReportMetric(float64(distinct), "distinct-N"+itoa(n))
			}
		}
	}
}

// BenchmarkAblatePpSweep quantifies the policy knob end to end: steady
// temperature and fan duty across the whole Pp range on cpu-burn.
func BenchmarkAblatePpSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pp := range []int{1, 25, 50, 75, 100} {
			n, err := node.New(node.DefaultConfig("ppsweep", 23))
			if err != nil {
				b.Fatal(err)
			}
			n.Settle(0)
			ctl, err := core.NewController(core.DefaultConfig(pp),
				core.SysfsTemp(n.FS, n.Hwmon.TempInput),
				core.NewFanActuator(core.NewSysfsFanPort(n.FS, n.Hwmon), 100))
			if err != nil {
				b.Fatal(err)
			}
			n.SetGenerator(workload.NewCPUBurn(nil))
			for s := 0; s < 1200; s++ {
				n.Step(250 * time.Millisecond)
				ctl.Binding().OnStep(n.Elapsed())
			}
			if i == 0 {
				b.ReportMetric(n.TrueDieC(), "degC-pp"+itoa(pp))
				b.ReportMetric(n.Fan.Duty(), "duty-pp"+itoa(pp))
			}
		}
	}
}

// BenchmarkAblateVsPID pits the paper's window/array controller against
// a competently tuned textbook PID loop on the same plant and workload
// sequence (cpu-burn, then jitter). The PID regulates temperature as
// well or better at steady state — the paper's controller earns its
// keep on actuator churn under jitter and on having a policy knob at
// all.
func BenchmarkAblateVsPID(b *testing.B) {
	run := func(usePID bool) (steadyC, jitterSwing float64) {
		n, err := node.New(node.DefaultConfig("vspid", 61))
		if err != nil {
			b.Fatal(err)
		}
		n.Settle(0)
		var step func(time.Duration)
		if usePID {
			p, err := baseline.NewPIDFan(core.SysfsTemp(n.FS, n.Hwmon.TempInput),
				core.NewSysfsFanPort(n.FS, n.Hwmon))
			if err != nil {
				b.Fatal(err)
			}
			step = p.OnStep
		} else {
			c, err := core.NewController(core.DefaultConfig(50),
				core.SysfsTemp(n.FS, n.Hwmon.TempInput),
				core.NewFanActuator(core.NewSysfsFanPort(n.FS, n.Hwmon), 100))
			if err != nil {
				b.Fatal(err)
			}
			step = c.Binding().OnStep
		}
		dt := 250 * time.Millisecond
		n.SetGenerator(workload.NewCPUBurn(nil))
		for i := 0; i < 1920; i++ { // 8 min of cpu-burn
			n.Step(dt)
			step(n.Elapsed())
		}
		steadyC = n.TrueDieC()
		n.SetGenerator(workload.Jitter{Low: 0.2, High: 0.9, Period: time.Second})
		lo, hi := 1e9, -1e9
		for i := 0; i < 1440; i++ { // 6 min of jitter
			n.Step(dt)
			step(n.Elapsed())
			if i > 480 {
				if d := n.Fan.Duty(); d < lo {
					lo = d
				}
				if d := n.Fan.Duty(); d > hi {
					hi = d
				}
			}
		}
		return steadyC, hi - lo
	}
	for i := 0; i < b.N; i++ {
		ps, pj := run(true)
		ws, wj := run(false)
		if i == 0 {
			b.ReportMetric(ps, "pid-steady-degC")
			b.ReportMetric(ws, "window-steady-degC")
			b.ReportMetric(pj, "pid-jitter-swing")
			b.ReportMetric(wj, "window-jitter-swing")
		}
	}
}

// BenchmarkNodeStepThroughput measures raw simulation speed: node model
// steps per second (the substrate's hot loop).
func BenchmarkNodeStepThroughput(b *testing.B) {
	n, err := node.New(node.DefaultConfig("speed", 29))
	if err != nil {
		b.Fatal(err)
	}
	n.SetGenerator(workload.Constant(0.8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(50 * time.Millisecond)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
