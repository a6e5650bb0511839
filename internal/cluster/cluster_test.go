package cluster

import (
	"math"
	"testing"
	"time"

	"thermctl/internal/node"
	"thermctl/internal/power"
	"thermctl/internal/workload"
)

// cpuAverageW is n's mean CPU power over its metered time: the mean
// wall power less the fan's share and the platform base.
func cpuAverageW(n *node.Node) float64 {
	m := n.Meter
	return m.AverageW()*(1-m.FanEnergyJ()/m.EnergyJ()) - power.DefaultBaseW
}

func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(n, DefaultDt, 42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewNamesAndSeeds(t *testing.T) {
	c := newCluster(t, 4)
	if len(c.Nodes) != 4 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	if c.Nodes[0].Name != "node0" || c.Nodes[3].Name != "node3" {
		t.Errorf("names: %s, %s", c.Nodes[0].Name, c.Nodes[3].Name)
	}
}

func TestRunGeneratorAdvancesAllNodes(t *testing.T) {
	c := newCluster(t, 2)
	c.Settle(0)
	c.RunGenerator(workload.Constant(1), 30*time.Second)
	if c.Clock.Now() < 30*time.Second {
		t.Errorf("clock at %v", c.Clock.Now())
	}
	for _, n := range c.Nodes {
		if n.Elapsed() < 30*time.Second {
			t.Errorf("node %s only advanced %v", n.Name, n.Elapsed())
		}
		if n.Utilization() != 1 {
			t.Errorf("node %s utilization %v", n.Name, n.Utilization())
		}
	}
}

func TestControllersInvokedEveryStep(t *testing.T) {
	c := newCluster(t, 1)
	calls := 0
	var lastNow time.Duration
	c.AddController(ControllerFunc(func(now time.Duration) {
		calls++
		if now <= lastNow {
			t.Fatalf("controller time went backwards: %v then %v", lastNow, now)
		}
		lastNow = now
	}))
	c.RunGenerator(workload.Constant(0.5), time.Second)
	want := int(time.Second / DefaultDt)
	if calls != want {
		t.Errorf("controller called %d times, want %d", calls, want)
	}
}

func TestRunProgramFixedFrequencyMatchesIdeal(t *testing.T) {
	c := newCluster(t, 4)
	c.Settle(0)
	// Small program for test speed: 20 iterations of BT-like shape.
	prog := workload.Uniform("mini-BT", 20, workload.Iteration{
		ComputeGC: 2.2128, ComputeUtil: 1.0, CommSec: 0.173, CommUtil: 0.10,
	})
	res := c.RunProgram(prog, 0)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	ideal := prog.IdealSeconds(2.4)
	got := res.ExecTime.Seconds()
	// Barrier release quantization costs at most one step per iteration.
	if got < ideal || got > ideal*1.06 {
		t.Errorf("exec time %.2f s, ideal %.2f s (want within +6%%)", got, ideal)
	}
}

func TestRunProgramScalesWithFrequency(t *testing.T) {
	run := func(freqGHz float64) float64 {
		c := newCluster(t, 2)
		c.Settle(0)
		for _, n := range c.Nodes {
			if !n.CPU.SetFreqGHz(freqGHz) {
				t.Fatalf("no %v GHz state", freqGHz)
			}
		}
		prog := workload.Uniform("p", 10, workload.Iteration{
			ComputeGC: 2.4, ComputeUtil: 1, CommSec: 0.1, CommUtil: 0.1,
		})
		return c.RunProgram(prog, 0).ExecTime.Seconds()
	}
	fast := run(2.4)
	slow := run(1.0)
	ratio := slow / fast
	// Compute is 10/11 of the ideal runtime; slowing 2.4→1.0 should
	// stretch it by close to 2.4/1.0 on the compute part.
	if ratio < 1.9 || ratio > 2.4 {
		t.Errorf("1.0 GHz / 2.4 GHz time ratio = %.2f, want ≈2.1", ratio)
	}
}

func TestRunProgramBarrierWaitsForSlowNode(t *testing.T) {
	c := newCluster(t, 2)
	c.Settle(0)
	// Slow down node 1 only: barrier forces node 0 to wait, so the
	// execution time follows the slow node.
	c.Nodes[1].CPU.SetFreqGHz(1.0)
	prog := workload.Uniform("skew", 10, workload.Iteration{
		ComputeGC: 2.4, ComputeUtil: 1, CommSec: 0.05, CommUtil: 0.1,
	})
	res := c.RunProgram(prog, 0)
	slowIdeal := prog.IdealSeconds(1.0)
	got := res.ExecTime.Seconds()
	if got < slowIdeal || got > slowIdeal*1.1 {
		t.Errorf("exec %.2f s, slow-node ideal %.2f s", got, slowIdeal)
	}
}

func TestRunProgramFastNodeIdlesAtBarrier(t *testing.T) {
	c := newCluster(t, 2)
	c.Settle(0)
	c.Nodes[1].CPU.SetFreqGHz(1.0)
	prog := workload.Uniform("skew", 20, workload.Iteration{
		ComputeGC: 2.4, ComputeUtil: 1, CommSec: 0.05, CommUtil: 0.1,
	})
	c.RunProgram(prog, 0)
	// Node 0 computes 1 s then waits ~1.4 s per iteration: its average
	// CPU energy should be clearly below node 1's per unit time? Node 1
	// runs at 1.0 GHz (lower power). Compare instead against a balanced
	// run: node 0's average utilization must be well below 1.
	cpuEnergyShare := cpuAverageW(c.Nodes[0])
	// Busy at 2.4 GHz would be ≈60 W; half-idle should be well below.
	if cpuEnergyShare > 45 {
		t.Errorf("fast node average CPU power %.1f W, want <45 (idling at barrier)", cpuEnergyShare)
	}
}

func TestRunProgramTimeout(t *testing.T) {
	c := newCluster(t, 1)
	prog := workload.Uniform("long", 1000, workload.Iteration{
		ComputeGC: 2.4, ComputeUtil: 1, CommSec: 0.1, CommUtil: 0.1,
	})
	res := c.RunProgram(prog, 5*time.Second)
	if !res.TimedOut {
		t.Error("run did not report timeout")
	}
	if res.ExecTime < 5*time.Second {
		t.Errorf("timed-out run stopped at %v", res.ExecTime)
	}
}

func TestRunProgramEmpty(t *testing.T) {
	c := newCluster(t, 1)
	res := c.RunProgram(workload.Program{Name: "empty"}, 0)
	if res.ExecTime != 0 || res.TimedOut {
		t.Errorf("empty program: %+v", res)
	}
}

func TestRunProgramDeterministic(t *testing.T) {
	run := func() time.Duration {
		c, err := New(2, DefaultDt, 7)
		if err != nil {
			t.Fatal(err)
		}
		c.Settle(0)
		prog := workload.Uniform("d", 15, workload.Iteration{
			ComputeGC: 1.2, ComputeUtil: 1, CommSec: 0.08, CommUtil: 0.1,
		})
		return c.RunProgram(prog, 0).ExecTime
	}
	if run() != run() {
		t.Error("program runs with identical seeds diverged")
	}
}

func TestClusterNodesHeatIndependently(t *testing.T) {
	c := newCluster(t, 2)
	c.Settle(0)
	// Load only node 0 via manual utilization (no generator).
	c.Nodes[0].SetGenerator(workload.Constant(1))
	c.Nodes[1].SetGenerator(workload.Constant(0))
	for i := 0; i < 1200; i++ { // 60 s
		c.Step()
	}
	d := c.Nodes[0].TrueDieC() - c.Nodes[1].TrueDieC()
	if d < 5 {
		t.Errorf("loaded node only %.1f °C hotter than idle node", d)
	}
}

func TestBTB4ExecutionTimeCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("long calibration run")
	}
	c := newCluster(t, 4)
	c.Settle(0)
	res := c.RunProgram(workload.BTB4(), 0)
	got := res.ExecTime.Seconds()
	if math.Abs(got-219) > 7 {
		t.Errorf("BT.B.4 at fixed 2.4 GHz ran %.1f s, want 219±7 (paper Table 1)", got)
	}
}
