package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"thermctl/internal/faults"
	"thermctl/internal/metrics"
	"thermctl/internal/rack"
	"thermctl/internal/tracefile"
	"thermctl/internal/workload"
)

// benchWorkerCounts returns the worker sweep for the scale benchmarks:
// serial, four-way, and all-the-way (GOMAXPROCS), deduplicated so
// sub-benchmark names stay unique on small machines.
func benchWorkerCounts() []int {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var out []int
	for _, w := range counts {
		dup := false
		for _, seen := range out {
			if seen == w {
				dup = true
			}
		}
		if !dup {
			out = append(out, w)
		}
	}
	return out
}

// benchNodeShapes returns the cluster sizes for the scale benchmarks:
// the rack-scale smoke shapes always, plus the fleet-scale shapes
// (1k/10k/100k nodes) when THERMCTL_BENCH_FLEET is set. The fleet
// matrix is where the hierarchical step loop has to pay off —
// node-steps/s should hold roughly flat from 1k to 100k if per-step
// dispatch stays O(nodes) with no per-round allocation — but a 100k
// cluster costs ~700 MB and seconds of setup per sub-benchmark, so CI
// smoke keeps the small shapes and `make bench` opts in via the
// environment variable.
func benchNodeShapes() []int {
	shapes := []int{4, 64, 256}
	if os.Getenv("THERMCTL_BENCH_FLEET") != "" {
		shapes = append(shapes, 1000, 10000, 100000)
	}
	return shapes
}

func benchCluster(b *testing.B, nodes, workers int) *Cluster {
	b.Helper()
	c, err := New(nodes, DefaultDt, 1)
	if err != nil {
		b.Fatal(err)
	}
	c.SetWorkers(workers)
	for _, n := range c.Nodes {
		n.SetGenerator(workload.Constant(0.9))
	}
	return c
}

// BenchmarkClusterStep is the scale benchmark behind BENCH_cluster.json
// (refresh with `make bench`): one full cluster step — all node models
// advanced plus the serial controller phase — at rack scales, across
// worker counts. Within one nodes= group, ns/op at workers=1 over
// ns/op at workers=W is the parallel speedup; results are
// byte-identical across the sweep (see TestParallelStepByteIdentical),
// so the sweep measures wall-clock only. With THERMCTL_BENCH_FLEET set
// the matrix extends to 1k/10k/100k nodes (see benchNodeShapes).
func BenchmarkClusterStep(b *testing.B) {
	for _, nodes := range benchNodeShapes() {
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
				c := benchCluster(b, nodes, workers)
				defer c.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Step()
				}
				b.StopTimer()
				b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-steps/s")
			})
		}
	}
}

// BenchmarkClusterStepTrace is the trace-recording twin of
// BenchmarkClusterStep at the 64-node scale: the same step loop with
// the production trace path — the cluster sampler (Cluster.Sample)
// feeding Writer.AppendFrame once per simulated second, the -trace
// cadence of clustersim — writer sealing raw chunks into a file in
// b.TempDir(). A chunk is written inside the Step that seals it, so
// the timed loop includes the write. That is config.AttachTraceProbe
// minus the schema header, which package cluster cannot import
// (cycle). It sits directly
// after BenchmarkClusterStep in the file on purpose: the two record
// close together in time, so the 5% gate compares numbers from the
// same host conditions rather than minutes of drift apart.
// Comparing nodes=64 sub-benchmarks against BenchmarkClusterStep is
// the cost of out-of-core trace recording on the step path; the
// acceptance bar — enforced by `benchjson -within ClusterStep
// ClusterStepTrace -tolerance 5` in scripts/bench.sh — is within 5% of
// the bare step. Writer.Append and AppendFrame are hotalloc roots, so
// the budget is spent on sampling and delta encoding alone, never on
// allocation.
func BenchmarkClusterStepTrace(b *testing.B) {
	const nodes = 64
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
			c := benchCluster(b, nodes, workers)
			defer c.Close()
			schema := make([]tracefile.SeriesDef, 0, nodes*FrameWidth)
			for i := 0; i < nodes; i++ {
				for _, f := range FrameFields {
					schema = append(schema, tracefile.SeriesDef{Name: fmt.Sprintf("n%d_%s", i, f.Name), Unit: f.Unit})
				}
			}
			f, err := os.Create(filepath.Join(b.TempDir(), "trace.tct"))
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			w, err := tracefile.NewWriter(f, schema, false)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Sample(time.Second, w.AppendFrame); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
			b.StopTimer()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-steps/s")
		})
	}
}

// BenchmarkClusterStepWorkload is the workload-plane twin of
// BenchmarkClusterStep at the 64-node scale: the same step loop with
// every node evaluating its own spec-built seeded generator (uniform
// random demand redrawn once per simulated second) instead of one
// shared Constant. Generator evaluation happens inside node.Step in the
// sharded phase, so this measures exactly what the per-node workload
// plane adds to the hot path: one rng.Mix + SplitMix64 draw per node
// per simulated second, a memo hit on the other steps, no allocation
// (Utilization is a hotalloc root; Random keys a throwaway stream via
// rng.At, and Spec.Build's per-node memo holds only the last draw). The
// acceptance bar — enforced by `benchjson -within ClusterStep
// ClusterStepWorkload -tolerance 10` in scripts/bench.sh — is within
// 10% of the bare step.
func BenchmarkClusterStepWorkload(b *testing.B) {
	const nodes = 64
	spec := workload.Spec{Kind: workload.KindRandom, Dist: "uniform", HoldMS: 1000}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
			c, err := New(nodes, DefaultDt, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.SetWorkers(workers)
			for i, n := range c.Nodes {
				g, err := spec.Build(1, i)
				if err != nil {
					b.Fatal(err)
				}
				n.SetGenerator(g)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-steps/s")
		})
	}
}

// BenchmarkEngineStep is the control-engine twin of
// BenchmarkClusterStep: the same cluster step with every node under the
// paper's full unified controller (dynamic fan + tDVFS coupled by the
// hybrid), all of it running through the core engine's
// binding/policy pipeline in the node-local control sweep of the
// parallel phase. The delta against BenchmarkClusterStep at a matching
// shape is the whole cost of software thermal control — one sysfs
// temperature read per round shared by both lanes, window updates and
// policy decisions on every fifth step
// (SamplePeriod 250ms over DefaultDt 50ms), not just engine dispatch.
// The four idle steps in between dispatch no control sweep at all: the
// hybrids report their next round through NextDue, and the cluster
// skips the sweep until one is due. The engine pipeline is
// allocation-free (0 allocs/op, same as the bare step: the per-round
// Txn is hosted in the binding, temp_input reads take hwmon's
// IntReader path, and the step job closure is built at wiring time —
// the last per-round allocation, found by thermlint's hotalloc
// analyzer), and the committed trajectory records ~4%
// at the 64- and 256-node serial shapes. The gate `benchjson -within
// ClusterStep EngineStep -tolerance 25` in `make bench` bounds the
// control cost with shared-machine noise headroom, and the committed
// BENCH_cluster.json trajectory guards EngineStep itself name-to-name
// in CI.
func BenchmarkEngineStep(b *testing.B) {
	for _, nodes := range []int{4, 64, 256} {
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
				c := benchCluster(b, nodes, workers)
				defer c.Close()
				attachHybrids(b, c)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Step()
				}
				b.StopTimer()
				b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-steps/s")
			})
		}
	}
}

// BenchmarkClusterStepFaults is the fault-plane twin of
// BenchmarkClusterStep at the 64-node scale: every node carries an
// attached injector and the plane runs in the serial controller phase,
// but the only scheduled episode lies far beyond the bench horizon, so
// no fault is ever active. Comparing nodes=64 sub-benchmarks against
// BenchmarkClusterStep is the idle cost of the resilience hooks; the
// acceptance bar is within 5% of the uninstrumented baseline.
func BenchmarkClusterStepFaults(b *testing.B) {
	const nodes = 64
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
			c := benchCluster(b, nodes, workers)
			defer c.Close()
			targets := make([]string, nodes)
			for i, n := range c.Nodes {
				targets[i] = n.Name
			}
			var schedules []faults.Schedule
			for _, name := range targets {
				schedules = append(schedules, faults.Schedule{
					Target: name,
					Episodes: []faults.Episode{{
						Kind:     faults.SensorDropout,
						Start:    faults.Dur(1000 * time.Hour),
						Duration: faults.Dur(time.Hour),
					}},
				})
			}
			if _, err := c.ApplyFaults(faults.Plan{Name: "idle", Schedules: schedules}, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-steps/s")
		})
	}
}

// BenchmarkClusterStepMetrics is the instrumented twin of
// BenchmarkClusterStep at the 64-node scale: the same step loop with a
// metrics registry attached (step-latency histogram, per-shard timing,
// barrier-wait spread, step counter). Comparing nodes=64 sub-benchmarks
// between the two is the overhead of full instrumentation; the
// acceptance bar is within 5% of the uninstrumented baseline at 4
// workers.
func BenchmarkClusterStepMetrics(b *testing.B) {
	const nodes = 64
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
			c := benchCluster(b, nodes, workers)
			defer c.Close()
			c.InstrumentMetrics(metrics.NewRegistry())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-steps/s")
		})
	}
}

// BenchmarkClusterStepRack is the rack-coupled variant: a 64-node rack
// whose air-recirculation controller runs in the serial phase of every
// step, the worst case for parallel efficiency (Amdahl's serial
// fraction includes the O(n²) inlet-target recomputation).
func BenchmarkClusterStepRack(b *testing.B) {
	const nodes = 64
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
			c := benchCluster(b, nodes, workers)
			defer c.Close()
			r, err := rack.New(rack.Default(), c.Nodes)
			if err != nil {
				b.Fatal(err)
			}
			c.AddController(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-steps/s")
		})
	}
}

// BenchmarkClusterRunProgram measures the SPMD path (advanceProc +
// barrier release) rather than the open-loop path.
func BenchmarkClusterRunProgram(b *testing.B) {
	prog := workload.Uniform("bench", 2, workload.Iteration{
		ComputeGC: 0.5, ComputeUtil: 1, CommSec: 0.02, CommUtil: 0.1,
	})
	for _, nodes := range []int{4, 64} {
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
				c, err := New(nodes, DefaultDt, 1)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				c.SetWorkers(workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res := c.RunProgram(prog, 0); res.TimedOut {
						b.Fatal("benchmark program timed out")
					}
				}
			})
		}
	}
}
