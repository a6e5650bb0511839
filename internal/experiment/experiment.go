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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/trace"
)

// Seed is the default seed used by all experiments; fixed so every run
// of the harness reproduces identical numbers.
const Seed = 20100131 // ICPP 2010 submission era

// Workers is how many CPUs the experiments use: an experiment runs up
// to Workers of its independent runs concurrently (see sweep), and
// every cluster they build is stepped by Workers goroutines (see
// cluster.SetWorkers). It is configuration, set once before any
// experiment runs (cmd/experiments wires its -workers flag here). Each
// run builds its own seeded rig and parallel stepping is byte-identical
// to serial, so the value changes wall-clock time only, never a result.
var Workers = 1

// sweep runs run(0), ..., run(n-1) on up to min(Workers, n) goroutines,
// which claim indices in order from a shared cursor, and returns the
// results in index order. If any run fails it returns the error of the
// lowest failing index. At Workers == 1 every run happens on the
// calling goroutine, in index order, stopping at the first error.
func sweep[T any](n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers := min(Workers, n)
	if workers <= 1 {
		for i := range out {
			var err error
			if out[i], err = run(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i], errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recorderSink records sample frames into one series per frame value,
// registered under the ClusterTraceSchema names ("n3_temp") in frame
// order. Its record method is the cluster.Sink; it appends directly,
// as the only writer of a recorder private to its run.
type recorderSink []*trace.Series

func (s recorderSink) record(now time.Duration, frame []float64) {
	for i, v := range frame {
		s[i].Add(now, v)
	}
}

// newProbe attaches an in-memory recorder to the cluster sampler,
// sampling every interval. every is positive at every call site.
func newProbe(c *cluster.Cluster, every time.Duration) *trace.Recorder {
	rec := trace.NewRecorder()
	names := config.ClusterTraceSchema(len(c.Nodes))
	s := make(recorderSink, len(names))
	for i, def := range names {
		s[i] = rec.Track(def.Name)
	}
	if err := c.Sample(every, s.record); err != nil {
		panic(err)
	}
	return rec
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
