package cluster

import (
	"math"
	"testing"
	"time"

	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

func perNodeGens(n int, seed uint64) []workload.Generator {
	gens := make([]workload.Generator, n)
	for i := range gens {
		// Stateful on purpose: the old shared-generator path could not
		// carry CPUBurn across a parallel fleet at all.
		gens[i] = workload.NewCPUBurn(rng.New(rng.Mix(seed, uint64(i))))
	}
	return gens
}

// TestRunGeneratorsByteIdenticalAcrossWorkers: per-node stateful
// generators evaluated in the sharded phase yield the same trajectory
// at every worker count — the invariant the shared-generator path
// could never offer for stateful workloads.
func TestRunGeneratorsByteIdenticalAcrossWorkers(t *testing.T) {
	forceProcs(t, 4)
	run := func(workers int) []float64 {
		c, err := New(poolNodes, DefaultDt, 7)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetWorkers(workers)
		if workers > 1 {
			requirePool(t, c, workers)
		}
		c.Settle(0)
		res := c.RunGenerators(perNodeGens(poolNodes, 7), 5*time.Second)
		if res.Err != nil || res.Canceled {
			t.Fatalf("run failed: %+v", res)
		}
		var out []float64
		for _, n := range c.Nodes {
			out = append(out, n.TrueDieC(), n.Sensor.Read(), n.Meter.EnergyJ())
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: observable %d = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunGeneratorsNodesIndependent: per-node CPUBurn instances draw
// independent noise, so identically configured nodes do not trace
// identical trajectories (they did under one shared noiseless path).
func TestRunGeneratorsNodesIndependent(t *testing.T) {
	c, err := New(2, DefaultDt, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Settle(0)
	if res := c.RunGenerators(perNodeGens(2, 3), 30*time.Second); res.Err != nil {
		t.Fatal(res.Err)
	}
	if c.Nodes[0].Meter.EnergyJ() == c.Nodes[1].Meter.EnergyJ() {
		t.Error("two nodes burned bit-identical energy; generator streams look shared")
	}
}

func TestRunGeneratorsCountMismatch(t *testing.T) {
	c, err := New(3, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.RunGenerators(perNodeGens(2, 1), time.Second)
	if res.Err != ErrGeneratorCount {
		t.Fatalf("err = %v, want ErrGeneratorCount", res.Err)
	}
	if res.ExecTime != 0 {
		t.Fatalf("mismatched call still ran for %v", res.ExecTime)
	}
}

func TestRunGeneratorsCanceled(t *testing.T) {
	c, err := New(2, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	close(stop)
	c.SetStop(stop)
	res := c.RunGenerators(perNodeGens(2, 1), time.Hour)
	if !res.Canceled {
		t.Fatal("pre-closed stop channel did not cancel the run")
	}
	if res.ExecTime != 0 {
		t.Fatalf("canceled-before-start run reports ExecTime %v", res.ExecTime)
	}
	c.SetStop(nil)
	res = c.RunGenerators(perNodeGens(2, 1), 2*time.Second)
	if res.Canceled || res.ExecTime != 2*time.Second {
		t.Fatalf("disarmed run = %+v, want clean 2s", res)
	}
}

// TestRunGeneratorReturnsResult: the shared-generator path reports the
// same RunResult shape as the per-node path.
func TestRunGeneratorReturnsResult(t *testing.T) {
	c, err := New(2, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.RunGenerator(workload.Constant(0.5), 3*time.Second)
	if res.Err != nil || res.Canceled || res.TimedOut {
		t.Fatalf("clean run = %+v", res)
	}
	if res.ExecTime != 3*time.Second {
		t.Fatalf("ExecTime = %v, want 3s", res.ExecTime)
	}
}

// TestNewFromConfigsHeterogeneous: per-config construction carries
// per-node hardware differences into the fleet and still lays hot
// state out struct-of-arrays.
func TestNewFromConfigsHeterogeneous(t *testing.T) {
	cfgA := node.DefaultConfig("hot0", 1)
	cfgB := node.DefaultConfig("hot1", 2)
	cfgB.AmbientOffsetC = 8
	c, err := NewFromConfigs([]node.Config{cfgA, cfgB}, DefaultDt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Settle(0.5)
	if c.Nodes[0].Name != "hot0" || c.Nodes[1].Name != "hot1" {
		t.Fatalf("names %q, %q", c.Nodes[0].Name, c.Nodes[1].Name)
	}
	if c.Nodes[1].TrueDieC() <= c.Nodes[0].TrueDieC() {
		t.Errorf("hot-inlet node (%.1fC) not hotter than baseline (%.1fC)",
			c.Nodes[1].TrueDieC(), c.Nodes[0].TrueDieC())
	}
	if _, err := NewFromConfigs(nil, DefaultDt); err == nil {
		t.Error("empty config slice accepted")
	}
}
