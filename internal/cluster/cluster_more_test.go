package cluster

import (
	"fmt"
	"testing"
	"time"

	"thermctl/internal/node"
	"thermctl/internal/workload"
)

func TestNewWithNodes(t *testing.T) {
	if _, err := NewWithNodes(nil, DefaultDt); err == nil {
		t.Error("empty node list accepted")
	}
	var nodes []*node.Node
	for i := 0; i < 3; i++ {
		n, err := node.New(node.DefaultConfig(fmt.Sprintf("custom%d", i), uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	c, err := NewWithNodes(nodes, DefaultDt)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 3 || c.Nodes[0].Name != "custom0" {
		t.Errorf("nodes: %d, first %q", len(c.Nodes), c.Nodes[0].Name)
	}
	if c.WaitUtil <= 0 {
		t.Error("WaitUtil default not set")
	}
	c.RunGenerator(workload.Constant(0.5), time.Second)
	if c.Clock.Now() < time.Second {
		t.Error("cluster did not step")
	}
}

func TestBarrierWaitUtilizationApplied(t *testing.T) {
	c, err := New(2, DefaultDt, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(0)
	c.WaitUtil = 0.06
	// Slow node 1 drastically so node 0 spends most time at barriers.
	c.Nodes[1].CPU.SetFreqGHz(1.0)
	prog := workload.Uniform("wait", 5, workload.Iteration{
		ComputeGC: 4.8, ComputeUtil: 1, CommSec: 0.05, CommUtil: 0.1,
	})
	c.RunProgram(prog, 0)
	// Node 0 computes 2 s then waits ~2.8 s per iteration at util 0.06:
	// its mean utilization lands near (2·1 + 2.8·0.06)/4.8 ≈ 0.45.
	avgBusy := cpuAverageW(c.Nodes[0])
	// Busy at 2.4 GHz would be ≈62 W; half-idle must be well below.
	if avgBusy > 48 {
		t.Errorf("fast node average CPU power %.1f W — barrier wait not near-idle", avgBusy)
	}
}

func TestRunGeneratorAfterProgram(t *testing.T) {
	c, err := New(2, DefaultDt, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(0)
	prog := workload.Uniform("short", 3, workload.Iteration{
		ComputeGC: 1, ComputeUtil: 1, CommSec: 0.05, CommUtil: 0.1,
	})
	res := c.RunProgram(prog, 0)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	mark := c.Clock.Now()
	c.RunGenerator(workload.Constant(0.2), 2*time.Second)
	if c.Clock.Now()-mark < 2*time.Second {
		t.Error("generator run after program did not advance")
	}
	for _, n := range c.Nodes {
		if n.Utilization() != 0.2 {
			t.Errorf("node %s utilization %v after generator", n.Name, n.Utilization())
		}
	}
}

func TestControllersSeeMonotoneTime(t *testing.T) {
	c, err := New(1, DefaultDt, 7)
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	c.AddController(ControllerFunc(func(now time.Duration) {
		if now <= last {
			t.Fatalf("time not monotone: %v then %v", last, now)
		}
		last = now
	}))
	prog := workload.Uniform("t", 3, workload.Iteration{
		ComputeGC: 0.5, ComputeUtil: 1, CommSec: 0.02, CommUtil: 0.1,
	})
	c.RunProgram(prog, 0)
	c.RunGenerator(workload.Constant(0.1), time.Second)
	if last == 0 {
		t.Fatal("controller never invoked")
	}
}

func TestMixedFrequencyNodesFinishTogether(t *testing.T) {
	// Barrier semantics: even with different per-node frequencies,
	// every process completes the same number of iterations.
	c, err := New(3, DefaultDt, 9)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(0)
	c.Nodes[0].CPU.SetFreqGHz(2.4)
	c.Nodes[1].CPU.SetFreqGHz(1.8)
	c.Nodes[2].CPU.SetFreqGHz(1.0)
	prog := workload.Uniform("mixed", 8, workload.Iteration{
		ComputeGC: 1.0, ComputeUtil: 1, CommSec: 0.04, CommUtil: 0.1,
	})
	res := c.RunProgram(prog, 0)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	want := prog.IdealSeconds(1.0) // slowest node gates
	got := res.ExecTime.Seconds()
	if got < want || got > want*1.15 {
		t.Errorf("exec %.2f s, slowest-node ideal %.2f", got, want)
	}
}

// TestRunProgramCanceled: closing the stop channel mid-run makes
// RunProgram return Canceled at the next round boundary, with the
// elapsed prefix in ExecTime.
func TestRunProgramCanceled(t *testing.T) {
	c, err := New(2, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(0)
	stop := make(chan struct{})
	c.SetStop(stop)
	// Cancel from a controller after 5 simulated seconds: the check
	// runs in the serial round loop, so the cancellation lands
	// deterministically.
	fired := false
	c.AddController(ControllerFunc(func(now time.Duration) {
		if !fired && now >= 5*time.Second {
			fired = true
			close(stop)
		}
	}))
	res := c.RunProgram(workload.BTB4(), 0)
	if !res.Canceled {
		t.Fatalf("result %+v, want Canceled", res)
	}
	if res.TimedOut || res.Err != nil {
		t.Fatalf("canceled result carries TimedOut/Err: %+v", res)
	}
	if res.ExecTime < 5*time.Second || res.ExecTime > 6*time.Second {
		t.Errorf("ExecTime = %s, want just past the 5s cancellation", res.ExecTime)
	}
}

// TestRunGeneratorCanceled: RunGenerator honors the same stop signal.
func TestRunGeneratorCanceled(t *testing.T) {
	c, err := New(1, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(0)
	stop := make(chan struct{})
	c.SetStop(stop)
	fired := false
	c.AddController(ControllerFunc(func(now time.Duration) {
		if !fired && now >= 2*time.Second {
			fired = true
			close(stop)
		}
	}))
	c.RunGenerator(workload.Constant(0.5), time.Hour)
	if got := c.Clock.Now(); got < 2*time.Second || got > 3*time.Second {
		t.Errorf("generator ran to %s, want cancellation just past 2s", got)
	}
	// Disarmed, the cluster runs normally again.
	c.SetStop(nil)
	before := c.Clock.Now()
	c.RunGenerator(workload.Constant(0.5), 2*time.Second)
	if got := c.Clock.Now() - before; got < 2*time.Second {
		t.Errorf("disarmed run advanced only %s, want the full 2s", got)
	}
}
