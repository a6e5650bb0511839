package cluster

import (
	"bytes"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"thermctl/internal/cpu"
	"thermctl/internal/metrics"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

// poolNodes is the cluster size the pool tests use: four participants'
// worth at the fan-out threshold, so SetWorkers(w) builds a pool of
// min(w, 4) participants under forceProcs(t, 4) instead of stepping
// inline.
const poolNodes = 4 * minNodesPerWorker

// forceProcs raises GOMAXPROCS for the duration of the test so the
// worker pool's goroutine path runs even on a single-CPU host
// (SetWorkers caps the participants at GOMAXPROCS, so at 1 it would
// build no pool and leave the helper goroutines, the wake/join
// handoff and the claim counter untested).
func forceProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// requirePool fails the test unless c steps on a pool of want
// participants, so a byte-identity comparison cannot pass by having
// stepped inline on both sides.
func requirePool(t *testing.T, c *Cluster, want int) {
	t.Helper()
	if c.pool == nil || c.Workers() != want || len(c.pool.helpers) != want-1 {
		t.Fatalf("cluster of %d nodes steps with workers=%d pool=%v, want a pool of %d participants",
			len(c.Nodes), c.Workers(), c.pool != nil, want)
	}
}

// helperGoroutines counts the live helper goroutines of every shard
// pool in the process and how many of them are blocked on their wake
// channel.
func helperGoroutines() (live, parked int) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("(*shardPool).loop")) {
			continue
		}
		live++
		if bytes.Contains(g, []byte("[chan receive")) && bytes.Contains(g, []byte("(*shardPool).await")) {
			parked++
		}
	}
	return live, parked
}

// quietHelpers waits until every helper goroutine left in the process
// (pools other tests closed or leaked) has exited or parked, and
// returns the count of those parked leftovers.
func quietHelpers(t *testing.T) int {
	t.Helper()
	var base int
	waitFor(t, "leftover helpers exited or parked", func() bool {
		live, parked := helperGoroutines()
		base = live
		return live == parked
	})
	return base
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// allParked reports whether every helper of p has raised its park flag.
func allParked(p *shardPool) bool {
	for w := range p.helpers {
		if !p.helpers[w].parked.Load() {
			return false
		}
	}
	return true
}

// noHang runs f and fails the test if it does not return within a
// generous bound — a lost wake shows up as a hung sweep.
func noHang(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// TestSweepSplitsAcrossParticipants: a sweep really runs on more than
// one goroutine. Whichever participant claims node 0 holds it until
// some node of the last chunk has run, which only another participant
// can do; a sweep stepped on one goroutine would wait out the deadline.
func TestSweepSplitsAcrossParticipants(t *testing.T) {
	forceProcs(t, 2)
	p := newShardPool(2, poolNodes)
	defer p.close()
	var lastChunkRan atomic.Bool
	var ran atomic.Int64
	waited := true
	noHang(t, "split sweep", func() {
		p.dispatch(func(i int) {
			ran.Add(1)
			if i >= poolNodes-p.chunk {
				lastChunkRan.Store(true)
			}
			if i != 0 {
				return
			}
			deadline := time.Now().Add(10 * time.Second)
			for !lastChunkRan.Load() {
				if time.Now().After(deadline) {
					waited = false
					return
				}
				runtime.Gosched()
			}
		})
	})
	if !waited {
		t.Fatal("node 0's participant waited 10 s and no other participant reached the last chunk")
	}
	if got := ran.Load(); got != poolNodes {
		t.Fatalf("sweep ran %d jobs, want %d", got, poolNodes)
	}
}

// TestIdlePoolParks: once a sweep is done and the spin budget has run
// out, every helper parks on its wake channel — an idle cluster costs
// no CPU — and the next sweep wakes them all.
func TestIdlePoolParks(t *testing.T) {
	forceProcs(t, 4)
	base := quietHelpers(t)
	p := newShardPool(4, poolNodes)
	defer p.close()
	var ran atomic.Int64
	count := func(int) { ran.Add(1) }
	for round := 1; round <= 3; round++ {
		p.dispatch(count)
		if got := ran.Load(); got != int64(round*poolNodes) {
			t.Fatalf("round %d: %d jobs ran, want %d", round, got, round*poolNodes)
		}
		waitFor(t, "every helper raised its park flag", func() bool { return allParked(p) })
		waitFor(t, "every helper blocked on its wake channel", func() bool {
			live, parked := helperGoroutines()
			return live == base+3 && parked == base+3
		})
		if p.joinParked.Load() {
			t.Fatalf("round %d: dispatcher's park flag still raised after the join", round)
		}
	}
}

// TestFreshPoolFirstSweep: a sweep published before the helper
// goroutines have even started must still be run and joined. A helper
// that took its starting epoch from a load instead of from 0 would
// miss that sweep and hang the join.
func TestFreshPoolFirstSweep(t *testing.T) {
	forceProcs(t, 4)
	noHang(t, "first sweep of a fresh pool", func() {
		for i := 0; i < 200; i++ {
			p := newShardPool(2+i%3, poolNodes)
			var ran atomic.Int64
			p.dispatch(func(int) { ran.Add(1) })
			p.close()
			if got := ran.Load(); got != poolNodes {
				t.Errorf("pool %d: first sweep ran %d jobs, want %d", i, got, poolNodes)
				return
			}
		}
	})
}

// TestSweepsAcrossParkMatchSerial: steps taken back to back (helpers
// spinning between sweeps) and steps separated by sleeps past the spin
// budget (helpers parked, woken by the dispatcher) both complete and
// leave every node bit-identical to serial stepping.
func TestSweepsAcrossParkMatchSerial(t *testing.T) {
	forceProcs(t, 4)
	run := func(workers int) []uint64 {
		c, err := New(poolNodes, DefaultDt, 31)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetWorkers(workers)
		if workers > 1 {
			requirePool(t, c, workers)
		}
		for i := range c.Nodes {
			c.Nodes[i].SetGenerator(workload.Constant(0.3 + 0.005*float64(i)))
			c.AddNodeController(i, ControllerFunc(func(time.Duration) {}))
		}
		for burst := 0; burst < 4; burst++ {
			noHang(t, "back-to-back steps", func() {
				for i := 0; i < 20; i++ {
					c.Step()
				}
			})
			if c.pool != nil {
				time.Sleep(2 * time.Millisecond)
				waitFor(t, "helpers parked between bursts", func() bool { return allParked(c.pool) })
			}
		}
		var out []uint64
		for _, n := range c.Nodes {
			out = append(out, math.Float64bits(n.TrueDieC()), math.Float64bits(n.Sensor.Read()),
				math.Float64bits(n.Meter.EnergyJ()))
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: observable %d = %x, serial %x", workers, i, got[i], want[i])
			}
		}
	}
}

// TestCloseReleasesHelpers: Close ends every helper goroutine, whether
// it is parked on its wake channel or still spinning on the epoch.
func TestCloseReleasesHelpers(t *testing.T) {
	forceProcs(t, 4)
	base := quietHelpers(t)
	noop := func(int) {}

	parked := newShardPool(4, poolNodes)
	parked.dispatch(noop)
	waitFor(t, "every helper parked", func() bool { return allParked(parked) })
	parked.close()
	waitFor(t, "a parked pool's helpers exited", func() bool {
		live, _ := helperGoroutines()
		return live == base
	})

	for i := 0; i < 20; i++ {
		spinning := newShardPool(4, poolNodes)
		spinning.dispatch(noop) // helpers are inside their spin budget
		spinning.close()
	}
	waitFor(t, "spinning pools' helpers exited", func() bool {
		live, _ := helperGoroutines()
		return live == base
	})
}

// TestRepeatedSetWorkersInstrumented reconfigures the pool several
// times on an instrumented cluster — each SetWorkers must tear down the
// old helper goroutines, build a pool wired to the existing metric
// handles, and keep the workers gauge truthful. Runs under -race in CI,
// which is the point: pool teardown racing helper goroutines would be
// caught here.
func TestRepeatedSetWorkersInstrumented(t *testing.T) {
	forceProcs(t, 4)
	c, err := New(poolNodes, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.InstrumentMetrics(reg)
	for _, n := range c.Nodes {
		n.SetGenerator(workload.Constant(0.5))
	}

	wantShardObs := 0
	steps := 0
	for _, w := range []int{2, 4, 3, 4, 2} {
		c.SetWorkers(w)
		requirePool(t, c, w)
		for i := 0; i < 3; i++ {
			c.Step()
		}
		steps += 3
		wantShardObs += 3 * w // every participant reports once per dispatch
		snap := reg.Snapshot()
		for _, s := range snap {
			switch s.Name {
			case "thermctl_cluster_workers":
				if s.Value != float64(w) {
					t.Fatalf("workers gauge = %v after SetWorkers(%d)", s.Value, w)
				}
			case "thermctl_cluster_shard_seconds":
				if s.Count != uint64(wantShardObs) {
					t.Fatalf("shard_seconds count = %d after %d steps, want %d", s.Count, steps, wantShardObs)
				}
			}
		}
	}
}

// TestCloseThenStepSerialFallback: Close mid-run must leave the cluster
// usable — subsequent Steps fall back to the serial loop and produce
// the bit-exact trajectory a never-parallel cluster produces.
func TestCloseThenStepSerialFallback(t *testing.T) {
	forceProcs(t, 4)
	run := func(parallelFirst bool) []float64 {
		c, err := New(poolNodes, DefaultDt, 77)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Settle(0)
		for _, n := range c.Nodes {
			n.SetGenerator(workload.Constant(0.7))
		}
		if parallelFirst {
			c.SetWorkers(3)
			requirePool(t, c, 3)
		}
		for i := 0; i < 10; i++ {
			c.Step()
		}
		if parallelFirst {
			c.Close()
			if c.Workers() != 1 {
				t.Fatalf("Workers() = %d after Close", c.Workers())
			}
		}
		for i := 0; i < 10; i++ {
			c.Step()
		}
		var out []float64
		for _, n := range c.Nodes {
			out = append(out, n.TrueDieC(), n.Sensor.Read(), n.Meter.EnergyJ())
		}
		return out
	}
	want := run(false)
	got := run(true)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("observable %d = %v after Close fallback, want %v", i, got[i], want[i])
		}
	}
}

// TestSetWorkersClampsToNodeCount: SetWorkers caps the participants
// at GOMAXPROCS and at one per minNodesPerWorker nodes (a participant
// with too little work is pure overhead), steps inline with no pool
// below two, and the clamped pool still steps correctly.
func TestSetWorkersClampsToNodeCount(t *testing.T) {
	forceProcs(t, 4)
	for _, tc := range []struct{ nodes, ask, want int }{
		{poolNodes, 64, 4},               // capped at GOMAXPROCS
		{poolNodes, 0, 4},                // 0 selects GOMAXPROCS
		{2 * minNodesPerWorker, 64, 2},   // capped by the threshold
		{3*minNodesPerWorker - 1, 3, 2},  // partial share rounds down
		{2*minNodesPerWorker - 1, 64, 1}, // under two shares: inline
		{3, 64, 1},                       // a rack of three: inline
		{1, 8, 1},                        // single node: inline
	} {
		c, err := New(tc.nodes, DefaultDt, 5)
		if err != nil {
			t.Fatal(err)
		}
		c.SetWorkers(tc.ask)
		if tc.want > 1 {
			requirePool(t, c, tc.want)
		} else if c.Workers() != 1 || c.pool != nil {
			t.Fatalf("SetWorkers(%d) on %d nodes: workers=%d pool=%v, want serial",
				tc.ask, tc.nodes, c.Workers(), c.pool != nil)
		}
		for _, n := range c.Nodes {
			n.SetGenerator(workload.Constant(0.4))
		}
		for i := 0; i < 5; i++ {
			c.Step()
		}
		if c.Clock.Now() != 5*DefaultDt {
			t.Fatalf("clock at %v after 5 steps", c.Clock.Now())
		}
		c.Close()
	}
	// GOMAXPROCS is read when the pool is built: a single-P runtime
	// never builds one, whatever the request.
	runtime.GOMAXPROCS(1)
	c, err := New(poolNodes, DefaultDt, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkers(4)
	if c.Workers() != 1 || c.pool != nil {
		t.Fatalf("GOMAXPROCS=1: workers=%d pool=%v, want serial", c.Workers(), c.pool != nil)
	}
}

// TestControllerPhaseOrder pins the hierarchical execution order within
// a step: cluster-level controllers attached before the first
// node-local one run first, then the node-local phase, then
// cluster-level controllers attached after. Serial stepping, so the
// node-local phase is also in node order and the whole sequence is
// deterministic.
func TestControllerPhaseOrder(t *testing.T) {
	c, err := New(3, DefaultDt, 11)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	mark := func(s string) Controller {
		return ControllerFunc(func(time.Duration) { order = append(order, s) })
	}
	c.AddController(mark("pre0"))
	c.AddController(mark("pre1"))
	for i := range c.Nodes {
		c.AddNodeController(i, mark("localA"))
	}
	c.AddNodeController(1, mark("localB"))
	c.AddController(mark("post0"))
	c.Step()
	want := []string{"pre0", "pre1", "localA", "localA", "localB", "localA", "post0"}
	if len(order) != len(want) {
		t.Fatalf("controller sequence %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("controller sequence %v, want %v", order, want)
		}
	}
}

// TestAddNodeControllerOutOfRangePanics pins the contract for a wiring
// bug: attaching to a node that does not exist is a programming error.
func TestAddNodeControllerOutOfRangePanics(t *testing.T) {
	c, err := New(2, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddNodeController(%d) on 2 nodes did not panic", i)
				}
			}()
			c.AddNodeController(i, ControllerFunc(func(time.Duration) {}))
		}()
	}
}

// TestRunProgramEmptyFreqTable: maxTime <= 0 derives its bound from the
// slowest P-state; a node with an empty table must yield an error-shaped
// RunResult instead of the historical index-out-of-range panic.
func TestRunProgramEmptyFreqTable(t *testing.T) {
	// cpu.New rejects empty tables, so reach the degenerate state the
	// way a misassembled node would present it: a zero-value CPU.
	c, err := NewWithNodes([]*node.Node{{Name: "empty", CPU: &cpu.CPU{}}}, DefaultDt)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Uniform("p", 2, workload.Iteration{ComputeGC: 1, ComputeUtil: 1})
	res := c.RunProgram(prog, 0)
	if res.Err == nil {
		t.Fatal("RunProgram(maxTime=0) with empty P-state table returned no error")
	}
	if res.ExecTime != 0 || res.TimedOut {
		t.Fatalf("error-shaped result should not report progress: %+v", res)
	}
}

// TestSubNanosecondResidualCarried: a compute residual worth less than
// 1 ns of wall time at the current clock must be retired (rounded up to
// one 1 ns slice), not silently zeroed. With the historical truncation,
// a program whose iteration tail always lands below 1 ns loses that
// work every iteration and finishes early; the carried residual keeps
// the execution-time accounting within the package's sub-step accuracy
// claim.
func TestSubNanosecondResidualCarried(t *testing.T) {
	c, err := New(1, DefaultDt, 13)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(0)
	// Barrier/done phases must retire nothing, so total retired work
	// isolates the compute phase exactly.
	c.WaitUtil = 0
	n := c.Nodes[0]
	freq := n.CPU.FreqGHz() // GHz = GC per second

	// One iteration whose compute lasts an exact whole number of steps
	// plus half a nanosecond of work: the tail slice rounds below 1 ns.
	wholeSteps := 4.0
	tail := freq * 0.5e-9 // GC retired in half a nanosecond
	work := freq*wholeSteps*DefaultDt.Seconds() + tail
	prog := workload.Program{Name: "subns", Iters: []workload.Iteration{
		{ComputeGC: work, ComputeUtil: 1},
	}}
	res := c.RunProgram(prog, time.Minute)
	if res.Err != nil || res.TimedOut {
		t.Fatalf("run failed: %+v", res)
	}
	retired := n.CPU.Work()
	if retired < work {
		t.Errorf("retired %.12f GC of %.12f — sub-ns residual dropped", retired, work)
	}
}
