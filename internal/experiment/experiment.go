// Package experiment regenerates every table and figure of the paper's
// evaluation (§4) on the simulated cluster. Each experiment has a Run
// function returning a typed result whose String method prints the rows
// or series the paper reports, plus Check* accessors the benchmark
// harness asserts the paper's qualitative claims against.
//
// Experiment index (see DESIGN.md §4 for the full mapping):
//
//	Fig2   — thermal behaviour types (sudden / gradual / jitter)
//	Fig5   — dynamic fan control vs. policy Pp ∈ {75, 50, 25}
//	Fig6   — dynamic vs. traditional static vs. constant fan on BT.B.4
//	Fig7   — maximum-PWM sweep {25, 50, 75, 100}%
//	Fig8   — tDVFS coupled with static fan control on LU
//	Fig9   — tDVFS vs. CPUSPEED under a weak fan on BT.B.4
//	Table1 — performance/power of BT under CPUSPEED vs. tDVFS
//	Fig10  — hybrid dynamic fan + tDVFS, one Pp for both knobs
package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/trace"
)

// Seed is the default seed used by all experiments; fixed so every run
// of the harness reproduces identical numbers.
const Seed = 20100131 // ICPP 2010 submission era

// Workers is the worker-goroutine count applied to every cluster the
// experiments build (see cluster.SetWorkers). It is configuration, set
// once before any experiment runs (cmd/experiments wires its -workers
// flag here); parallel stepping is byte-identical to serial, so the
// value changes wall-clock time only, never a result.
var Workers = 1

// probe records per-node observables on a fixed schedule.
type probe struct {
	c      *cluster.Cluster
	rec    *trace.Recorder
	every  time.Duration
	next   time.Duration
	labels []probeLabels
}

// probeLabels holds one node's series names, formatted once at probe
// construction: OnStep samples every node every interval and must not
// build strings per sample.
type probeLabels struct {
	temp, duty, freq, power string
}

// newProbe attaches a recorder to the cluster sampling every interval.
func newProbe(c *cluster.Cluster, every time.Duration) *probe {
	p := &probe{c: c, rec: trace.NewRecorder(), every: every, next: 0}
	p.labels = make([]probeLabels, len(c.Nodes))
	for i := range c.Nodes {
		prefix := fmt.Sprintf("n%d_", i)
		p.labels[i] = probeLabels{
			temp:  prefix + "temp",
			duty:  prefix + "duty",
			freq:  prefix + "freq",
			power: prefix + "power",
		}
	}
	c.AddController(p)
	return p
}

// OnStep implements cluster.Controller.
func (p *probe) OnStep(now time.Duration) {
	if now < p.next {
		return
	}
	p.next += p.every
	for i, n := range p.c.Nodes {
		l := &p.labels[i]
		p.rec.Record(l.temp, now, n.Sensor.Read())
		p.rec.Record(l.duty, now, n.Fan.Duty())
		p.rec.Record(l.freq, now, n.CPU.FreqGHz())
		p.rec.Record(l.power, now, n.Power().Total())
	}
}

// control is one experiment run's per-node technique set: fan and dvfs
// name the ControlSpec techniques, at policy pp with the fan duty capped
// at maxDuty percent; every other knob keeps its paper default.
func control(fan, dvfs string, pp int, maxDuty float64) config.ControlSpec {
	tune := config.Default()
	tune.Pp, tune.MaxFanDuty = pp, maxDuty
	return config.ControlSpec{Fan: fan, DVFS: dvfs, Sleep: "none", Tuning: tune}
}

// dvfsTechnique maps a report's daemon label (tDVFS, CPUSPEED) to its
// ControlSpec dvfs name.
func dvfsTechnique(daemon string) string { return strings.ToLower(daemon) }

// build assembles an experiment cluster through the scenario layer:
// nodes standard nodes settled at idle, stepped by Workers goroutines,
// each under cs, with the named SPMD program (bt, lu or none) in
// Rig.Program. The caller closes the cluster.
func build(nodes int, seed uint64, program string, cs config.ControlSpec) (*config.Rig, error) {
	return config.Scenario{Nodes: nodes, Seed: seed, Workers: Workers, Program: program, Control: cs}.Build()
}

// chipAuto leaves every fan on the chip's firmware curve with no
// software controller: the rig for runs that pin the hardware by hand.
var chipAuto = config.ControlSpec{Fan: "auto", DVFS: "none", Sleep: "none"}

// avgAcrossNodes returns the mean over nodes of the given per-node
// series statistic.
func avgAcrossNodes(rec *trace.Recorder, nodes int, suffix string,
	stat func(*trace.Series) float64) float64 {
	var sum float64
	for i := 0; i < nodes; i++ {
		s := rec.Series(fmt.Sprintf("n%d_%s", i, suffix))
		if s == nil {
			return 0
		}
		sum += stat(s)
	}
	return sum / float64(nodes)
}

// meterAvgW returns the average wall power across the cluster's nodes.
func meterAvgW(c *cluster.Cluster) float64 {
	var sum float64
	for _, n := range c.Nodes {
		sum += n.Meter.AverageW()
	}
	return sum / float64(len(c.Nodes))
}

// totalTransitions sums frequency transitions across nodes.
func totalTransitions(c *cluster.Cluster) uint64 {
	var sum uint64
	for _, n := range c.Nodes {
		sum += n.CPU.Transitions()
	}
	return sum
}
