// Package report renders the full paper-vs-measured comparison as a
// markdown document, generated from live experiment results so the
// recorded numbers can never drift from what the code produces. The
// verdict logic mirrors the assertions of the experiment test suite.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/experiment"
	"thermctl/internal/metrics"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

// All bundles every experiment's result.
type All struct {
	Fig2   *experiment.Fig2Result
	Fig5   *experiment.Fig5Result
	Fig6   *experiment.Fig6Result
	Fig7   *experiment.Fig7Result
	Fig8   *experiment.Fig8Result
	Fig9   *experiment.Fig9Result
	Table1 *experiment.Table1Result
	Fig10  *experiment.Fig10Result

	FanFailure *experiment.FanFailureResult
	Scaling    *experiment.ScalingResult
	Rack       *experiment.RackStudyResult
	Workloads  *experiment.WorkloadStudyResult
	Chaos      *experiment.ChaosResult

	// Metrics holds the counter/gauge samples of a short instrumented
	// unified-control run (see CollectMetrics).
	Metrics []metrics.Sample
}

// Experiment is one named step of the evaluation. Run executes it at
// seed, stores the result in a and returns it in printable form.
type Experiment struct {
	Name string
	Run  func(a *All, seed uint64) (fmt.Stringer, error)
}

// Experiments is the evaluation in Collect order: the paper's figures
// and table, the extension studies, chaos and the metrics run.
// cmd/experiments selects and prints from this table, and
// bench/paper.go copies its order in paperSteps.
var Experiments = []Experiment{
	{"fig2", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Fig2)(experiment.Fig2(s)) }},
	{"fig5", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Fig5)(experiment.Fig5(s)) }},
	{"fig6", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Fig6)(experiment.Fig6(s)) }},
	{"fig7", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Fig7)(experiment.Fig7(s)) }},
	{"fig8", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Fig8)(experiment.Fig8(s)) }},
	{"fig9", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Fig9)(experiment.Fig9(s)) }},
	{"table1", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Table1)(experiment.Table1(s)) }},
	{"fig10", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Fig10)(experiment.Fig10(s)) }},
	{"fanfailure", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.FanFailure)(experiment.FanFailure(s)) }},
	{"scaling", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Scaling)(experiment.Scaling(s)) }},
	{"rack", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Rack)(experiment.RackStudy(s)) }},
	{"workloads", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Workloads)(experiment.WorkloadStudy(s)) }},
	{"chaos", func(a *All, s uint64) (fmt.Stringer, error) { return keep(&a.Chaos)(experiment.Chaos(s)) }},
	{"metrics", func(a *All, s uint64) (_ fmt.Stringer, err error) {
		a.Metrics, err = CollectMetrics(s)
		return metricsText(a.Metrics), err
	}},
}

// keep returns a function that stores a result in *dst and passes it
// on in printable form.
func keep[R fmt.Stringer](dst *R) func(R, error) (fmt.Stringer, error) {
	return func(r R, err error) (fmt.Stringer, error) {
		*dst = r
		return r, err
	}
}

// metricsText prints metrics samples one per line under a heading.
type metricsText []metrics.Sample

func (m metricsText) String() string {
	var sb strings.Builder
	sb.WriteString("observability metrics (10-minute instrumented unified-control run):")
	for _, s := range m {
		fmt.Fprintf(&sb, "\n  %-45s %g", s.Name, s.Value)
	}
	return sb.String()
}

// Collect runs the complete evaluation at the given seed.
func Collect(seed uint64) (*All, error) {
	a := &All{}
	for _, e := range Experiments {
		if _, err := e.Run(a, seed); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// CollectMetrics runs the unified controller on one cpu-burn node for
// ten simulated minutes with a metrics registry attached and returns
// the counter and gauge samples. These are driven purely by simulation
// state, so the rendered values are as deterministic as every other
// number in the report; histograms are dropped because they record
// wall-clock latency.
func CollectMetrics(seed uint64) ([]metrics.Sample, error) {
	n, err := node.New(node.DefaultConfig("metrics", seed))
	if err != nil {
		return nil, err
	}
	n.Settle(0)
	tune := config.Default()
	tune.MaxFanDuty = 30
	reg := metrics.NewRegistry()
	nc, err := config.ControlSpec{Fan: "dynamic", DVFS: "tdvfs", Sleep: "none", Tuning: tune}.
		BuildNode(n, config.NodeOptions{Registry: reg})
	if err != nil {
		return nil, err
	}
	n.Fan.InstrumentMetrics(reg)
	n.Chip.InstrumentMetrics(reg)

	n.SetGenerator(workload.NewCPUBurn(rng.New(seed + 1)))
	dt := 250 * time.Millisecond
	for n.Elapsed() < 10*time.Minute {
		n.Step(dt)
		nc.OnStep(n.Elapsed())
	}

	var out []metrics.Sample
	for _, s := range reg.Snapshot() {
		if s.Kind == metrics.KindHistogram {
			continue
		}
		out = append(out, s)
	}
	return out, nil
}

func verdict(ok bool) string {
	if ok {
		return "reproduced"
	}
	return "DEVIATION"
}

// Markdown writes the report.
func (a *All) Markdown(w io.Writer) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	p("# Reproduction report (generated)\n\n")
	p("Generated by `cmd/experiments -markdown`; every number below comes from\n")
	p("a live deterministic run. The prose analysis lives in EXPERIMENTS.md.\n\n")

	// Figure 2.
	p("## Figure 2 — thermal behaviour classification\n\n")
	p("| observable | paper | measured | verdict |\n|---|---|---|---|\n")
	p("| sudden detected during onset | yes | %d/%d rounds | %s |\n",
		a.Fig2.SuddenInOnset, a.Fig2.RoundsInOnset, verdict(a.Fig2.SuddenInOnset >= 1))
	noReact := a.Fig2.NoReactInJitter
	p("| controller inert to jitter | yes | %d/%d rounds inert | %s |\n",
		noReact, a.Fig2.RoundsInJitter, verdict(a.Fig2.FalseSuddenInJitter <= a.Fig2.RoundsInJitter/5))
	p("| gradual trend tracked | yes | %d/%d rounds | %s |\n\n",
		a.Fig2.GradualInRamp, a.Fig2.RoundsInRamp, verdict(a.Fig2.GradualInRamp >= a.Fig2.RoundsInRamp/4))

	// Figure 5.
	p("## Figure 5 — fan policy sweep (cpu-burn)\n\n")
	p("| Pp | paper avg duty | measured avg duty | measured avg °C |\n|---|---|---|---|\n")
	paperDuty := map[int]float64{75: 36, 50: 53, 25: 70}
	for _, pp := range []int{75, 50, 25} {
		row := a.Fig5.Row(pp)
		p("| %d | %.0f | %.1f | %.2f |\n", pp, paperDuty[pp], row.AvgDuty, row.AvgTempC)
	}
	ordered := a.Fig5.Row(25).AvgDuty > a.Fig5.Row(50).AvgDuty &&
		a.Fig5.Row(50).AvgDuty > a.Fig5.Row(75).AvgDuty &&
		a.Fig5.Row(25).AvgTempC < a.Fig5.Row(75).AvgTempC
	p("\nOrdering (duty up, temperature down as Pp falls): **%s**\n\n", verdict(ordered))

	// Figure 6.
	p("## Figure 6 — fan methods on BT.B.4\n\n")
	p("| method | peak duty %% | steady °C | fan energy J |\n|---|---|---|---|\n")
	for _, m := range []string{"dynamic", "static", "constant"} {
		row := a.Fig6.Row(m)
		p("| %s | %.1f | %.2f | %.1f |\n", m, row.PeakDuty, row.SteadyC, row.FanEnergyJ)
	}
	dyn, sta, con := a.Fig6.Row("dynamic"), a.Fig6.Row("static"), a.Fig6.Row("constant")
	p("\nDynamic leads static and runs cooler; constant coldest/costliest: **%s**\n\n",
		verdict(dyn.PeakDuty > sta.PeakDuty && dyn.SteadyC < sta.SteadyC &&
			con.SteadyC < dyn.SteadyC && con.FanEnergyJ > dyn.FanEnergyJ))

	// Figure 7.
	p("## Figure 7 — fan capability sweep\n\n")
	p("| max duty | steady °C |\n|---|---|\n")
	for _, cap := range []float64{25, 50, 75, 100} {
		p("| %.0f%% | %.2f |\n", cap, a.Fig7.Row(cap).SteadyC)
	}
	s2510 := a.Fig7.Spread(25, 100)
	s5075 := math.Abs(a.Fig7.Spread(50, 75))
	p("\n25%%→100%% spread %.2f °C (paper ≈8): **%s**; 50%% vs 75%% %.2f °C (paper: not significant): **%s**\n\n",
		s2510, verdict(s2510 >= 4 && s2510 <= 14), s5075, verdict(s5075 <= 3))

	// Figure 8.
	p("## Figure 8 — tDVFS with static fan (LU)\n\n")
	p("Scale-downs %d, restores %d, min %.1f GHz, final %.1f GHz: **%s**\n\n",
		a.Fig8.Downscales, a.Fig8.Upscales, a.Fig8.MinFreqGHz, a.Fig8.EndFreqGHz,
		verdict(a.Fig8.Downscales >= 1 && a.Fig8.Upscales >= 1 && a.Fig8.EndFreqGHz == 2.4))

	// Figure 9.
	p("## Figure 9 — tDVFS vs CPUSPEED under a weak fan\n\n")
	p("| daemon | final °C | late slope °C/min | freq changes |\n|---|---|---|---|\n")
	for _, d := range []string{"CPUSPEED", "tDVFS"} {
		row := a.Fig9.Row(d)
		p("| %s | %.2f | %+.2f | %d |\n", d, row.FinalC, row.LateSlope, row.Transitions)
	}
	td, cs := a.Fig9.Row("tDVFS"), a.Fig9.Row("CPUSPEED")
	p("\ntDVFS stabilizes what CPUSPEED lets rise: **%s**\n\n",
		verdict(td.FinalC < cs.FinalC && td.LateSlope < cs.LateSlope && td.Transitions*10 <= cs.Transitions))

	// Table 1.
	p("## Table 1 — performance and power\n\n")
	p("| metric | daemon | 75%% | 50%% | 25%% |\n|---|---|---|---|---|\n")
	for _, daemon := range []string{"CPUSPEED", "tDVFS"} {
		p("| freq changes | %s |", daemon)
		for _, cap := range []float64{75, 50, 25} {
			p(" %d |", a.Table1.Cell(daemon, cap).FreqChanges)
		}
		p("\n| exec time s | %s |", daemon)
		for _, cap := range []float64{75, 50, 25} {
			p(" %.0f |", a.Table1.Cell(daemon, cap).ExecS)
		}
		p("\n| avg power W | %s |", daemon)
		for _, cap := range []float64{75, 50, 25} {
			p(" %.2f |", a.Table1.Cell(daemon, cap).AvgPowerW)
		}
		p("\n| PDP W·s | %s |", daemon)
		for _, cap := range []float64{75, 50, 25} {
			p(" %.0f |", a.Table1.Cell(daemon, cap).PDP)
		}
		p("\n")
	}
	td25, cs25 := a.Table1.Cell("tDVFS", 25), a.Table1.Cell("CPUSPEED", 25)
	p("\nTransition reduction ≥95%% at every cap: **%s**; weakest-fan power and PDP win: **%s**\n\n",
		verdict(a.Table1.Cell("tDVFS", 75).FreqChanges <= 6 && cs25.FreqChanges >= 40),
		verdict(td25.AvgPowerW < cs25.AvgPowerW && td25.PDP < cs25.PDP))

	// Figure 10.
	p("## Figure 10 — hybrid coordination\n\n")
	p("| Pp | avg °C | tDVFS trigger s | min GHz | exec s |\n|---|---|---|---|---|\n")
	for _, pp := range []int{75, 50, 25} {
		row := a.Fig10.Row(pp)
		p("| %d | %.2f | %.0f | %.1f | %.1f |\n",
			pp, row.AvgTempC, row.TriggeredS, row.MinFreqGHz, row.ExecS)
	}
	trigOrdered := a.Fig10.Row(25).TriggeredS > a.Fig10.Row(75).TriggeredS
	spread := a.Fig10.PerfSpreadPct()
	p("\nSmaller Pp triggers later: **%s**; perf spread %.2f%% (paper +4.76%%, small either way): **%s**\n\n",
		verdict(trigOrdered), spread, verdict(math.Abs(spread) <= 10))

	// Extensions.
	p("## Extensions\n\n```\n%s\n%s\n%s\n%s```\n",
		a.FanFailure, a.Rack, a.Workloads, a.Scaling)

	// Resilience.
	d := &a.Chaos.Dropout
	p("\n## Resilience — chaos survival\n\n")
	p("Seeded fault campaigns against the full stack (see DESIGN.md §8).\n")
	p("Under a 30 s total sensor dropout the fail-safe must reach maximum\n")
	p("cooling inside its escalation window and hand control back once the\n")
	p("sensor returns, without the hardware trip point ever firing.\n\n")
	p("| observable | required | measured | verdict |\n|---|---|---|---|\n")
	p("| fail-safe engaged | within 2.5 s | +%v | %s |\n",
		d.EscalateLatency(), verdict(d.Escalated && d.EscalateLatency() <= 2500*time.Millisecond))
	p("| fan at max duty | while blind | %v | %s |\n",
		d.FanMaxAt, verdict(d.FanMaxReached))
	p("| max die °C | < 70 | %.2f | %s |\n", d.MaxDieC, verdict(d.MaxDieC < 70))
	p("| emergencies | 0 | %d | %s |\n", d.Emergencies, verdict(d.Emergencies == 0))
	p("| control recovered | within 1.5 s | +%v | %s |\n\n",
		d.RecoverLatency(), verdict(d.Released && d.RecoverLatency() <= 1500*time.Millisecond))
	p("```\n%s```\n", a.Chaos)

	// Observability.
	p("\n## Observability — controller metrics\n\n")
	p("Counter and gauge samples from a 10-minute instrumented unified-control\n")
	p("run (cpu-burn, Pp=50, 30%% duty cap); the same series are scraped live\n")
	p("from `thermctld -listen` at /metrics. Histograms are omitted here: they\n")
	p("record wall-clock latency, not simulation state.\n\n")
	p("| metric | value |\n|---|---|\n")
	for _, s := range a.Metrics {
		p("| %s | %g |\n", s.Name, s.Value)
	}
	return nil
}
