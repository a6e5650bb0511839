package cluster

import (
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"thermctl/internal/core"
	"thermctl/internal/workload"
)

// attachHybrids gives every node of c the paper's hybrid controller on
// its own sysfs ports, as node-local controllers.
func attachHybrids(tb testing.TB, c *Cluster) {
	tb.Helper()
	for i, n := range c.Nodes {
		read := core.SysfsTemp(n.FS, n.Hwmon.TempInput)
		fan, err := core.NewController(core.DefaultConfig(50), read,
			core.NewFanActuator(core.NewSysfsFanPort(n.FS, n.Hwmon), 100))
		if err != nil {
			tb.Fatal(err)
		}
		act, err := core.NewDVFSActuator(core.NewSysfsFreqPort(n.FS, n.Cpufreq))
		if err != nil {
			tb.Fatal(err)
		}
		dvfs, err := core.NewTDVFS(core.DefaultTDVFSConfig(50), read, act)
		if err != nil {
			tb.Fatal(err)
		}
		eng := core.NewEngine(read)
		eng.Attach(dvfs.Binding(), nil)
		eng.Attach(fan.Binding(), core.HoldFloorHook(fan.Policy(), dvfs.Policy(), nil))
		c.AddNodeController(i, eng)
	}
}

// signature captures the full observable state trajectory of a cluster
// run with the given worker count: every node's bit-exact die
// temperature, sensed temperature, fan duty, frequency and power at
// every step, plus the RunResults of a generator phase and a program
// phase. Floats are rendered as hex bit patterns so "byte-identical"
// means exactly that — no formatting rounding can hide a divergence.
func signature(t *testing.T, workers int) []byte {
	t.Helper()
	c, err := New(poolNodes, DefaultDt, 20100131)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetWorkers(workers)
	if workers > 1 {
		requirePool(t, c, min(workers, 4)) // capped at forceProcs' 4 Ps
	}
	c.Settle(0)

	// Node-local control in the sharded phase: each hybrid observes and
	// actuates only its own node, so its decisions alter the trajectory
	// (fan duty, frequency) and any cross-worker nondeterminism in the
	// local phase would surface in the signature.
	attachHybrids(t, c)

	var sig []byte
	bits := func(v float64) {
		sig = strconv.AppendUint(sig, math.Float64bits(v), 16)
		sig = append(sig, ' ')
	}
	snapshot := ControllerFunc(func(now time.Duration) {
		sig = append(sig, []byte(now.String())...)
		for _, n := range c.Nodes {
			bits(n.TrueDieC())
			bits(n.Sensor.Read())
			bits(n.Fan.Duty())
			bits(n.CPU.FreqGHz())
			bits(n.Power().Total())
			bits(n.Meter.EnergyJ())
		}
		sig = append(sig, '\n')
	})
	c.AddController(snapshot)

	// Phase 1: open-loop generator (stateless, as the parallel contract
	// requires for a shared generator).
	c.RunGenerator(workload.Constant(0.85), 5*time.Second)

	// Phase 2: an SPMD program with skewed frequencies so the barrier
	// logic (the serial phase) is genuinely exercised.
	c.Nodes[3].CPU.SetFreqGHz(1.8)
	c.Nodes[5].CPU.SetFreqGHz(1.0)
	prog := workload.Uniform("sig", 6, workload.Iteration{
		ComputeGC: 1.1, ComputeUtil: 1, MemSec: 0.05, CommSec: 0.06, CommUtil: 0.1,
	})
	res := c.RunProgram(prog, 0)
	sig = fmt.Appendf(sig, "result %d %v\n", res.ExecTime, res.TimedOut)
	return sig
}

// TestParallelStepByteIdentical is the tentpole invariant: sharded
// parallel stepping produces byte-identical trajectories and results
// for every worker count, including worker counts above GOMAXPROCS
// (clamped) — the pool only changes wall-clock time.
func TestParallelStepByteIdentical(t *testing.T) {
	forceProcs(t, 4) // exercise the real pool even on a single-CPU host
	want := signature(t, 1)
	if len(want) == 0 {
		t.Fatal("empty signature")
	}
	for _, workers := range []int{2, 3, 8, 16} {
		got := signature(t, workers)
		if string(got) != string(want) {
			t.Errorf("workers=%d: trajectory diverged from serial (len %d vs %d)",
				workers, len(got), len(want))
		}
	}
}

// TestParallelRunGeneratorMatchesSerial covers the Step/RunGenerator
// path on its own, without a program phase.
func TestParallelRunGeneratorMatchesSerial(t *testing.T) {
	forceProcs(t, 4)
	run := func(workers int) []float64 {
		c, err := New(poolNodes, DefaultDt, 99)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetWorkers(workers)
		if workers > 1 {
			requirePool(t, c, min(workers, 4))
		}
		c.Settle(0)
		c.RunGenerator(workload.Step{Before: 0.1, After: 1, At: 2 * time.Second}, 6*time.Second)
		var out []float64
		for _, n := range c.Nodes {
			out = append(out, n.TrueDieC(), n.Sensor.Read(), n.Meter.EnergyJ())
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3} {
		got := run(workers)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: observable %d = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSetWorkersReconfigures checks pool rebuild and serial fallback.
func TestSetWorkersReconfigures(t *testing.T) {
	forceProcs(t, 4)
	c, err := New(poolNodes, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Workers() != 1 {
		t.Fatalf("fresh cluster has %d workers", c.Workers())
	}
	c.SetWorkers(2)
	requirePool(t, c, 2)
	c.Step()
	c.SetWorkers(4)
	requirePool(t, c, 4)
	c.Step()
	c.SetWorkers(1)
	if c.pool != nil {
		t.Fatal("serial cluster still holds a pool")
	}
	c.Step()
	c.SetWorkers(0) // GOMAXPROCS default
	requirePool(t, c, 4)
	c.Step()
	c.Close()
	c.Close() // idempotent
	c.Step()  // still usable serially
	if c.Clock.Now() < 5*DefaultDt {
		t.Fatalf("clock at %v after five steps", c.Clock.Now())
	}
}

// TestSeedMixRegression: with the old additive derivation
// (seed + i·7919), cluster(seed=0) node 1 and cluster(seed=7919)
// node 0 shared one RNG stream, so their sensors produced identical
// noise forever. The mixed derivation must keep them apart.
func TestSeedMixRegression(t *testing.T) {
	a, err := New(2, DefaultDt, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(2, DefaultDt, 7919)
	if err != nil {
		t.Fatal(err)
	}
	a.Settle(0.5)
	b.Settle(0.5)
	same := true
	for i := 0; i < 20; i++ {
		a.Step()
		b.Step()
		if math.Float64bits(a.Nodes[1].Sensor.Read()) != math.Float64bits(b.Nodes[0].Sensor.Read()) {
			same = false
			break
		}
	}
	if same {
		t.Error("clusters seeded 0 and 7919 share a node noise stream (additive seed derivation)")
	}
}

// TestSeedsStillDeterministic: the mixed derivation must stay a pure
// function of (seed, index).
func TestSeedsStillDeterministic(t *testing.T) {
	a, err := New(3, DefaultDt, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(3, DefaultDt, 42)
	if err != nil {
		t.Fatal(err)
	}
	a.Settle(0.5)
	b.Settle(0.5)
	for i := 0; i < 10; i++ {
		a.Step()
		b.Step()
	}
	for i := range a.Nodes {
		if a.Nodes[i].Sensor.Read() != b.Nodes[i].Sensor.Read() {
			t.Fatalf("node %d diverged between identically seeded clusters", i)
		}
	}
}
