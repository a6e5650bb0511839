package cluster

import (
	"math"
	"strconv"
	"testing"
	"time"

	"thermctl/internal/faults"
	"thermctl/internal/workload"
)

// faultSignature captures the bit-exact per-step trajectory of a
// fault-injected cluster run plus the fault plane's event timeline.
func faultSignature(t *testing.T, workers int) []byte {
	t.Helper()
	const nodes = poolNodes
	c, err := New(nodes, DefaultDt, 20100131)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetWorkers(workers)
	if workers > 1 {
		requirePool(t, c, min(workers, 4))
	}
	c.Settle(0)

	targets := make([]string, nodes)
	for i, n := range c.Nodes {
		targets[i] = n.Name
	}
	plane, err := c.ApplyFaults(faults.Generate(7, targets, 8*time.Second), 20100131)
	if err != nil {
		t.Fatal(err)
	}

	var sig []byte
	bits := func(v float64) {
		sig = strconv.AppendUint(sig, math.Float64bits(v), 16)
		sig = append(sig, ' ')
	}
	c.AddController(ControllerFunc(func(now time.Duration) {
		sig = append(sig, []byte(now.String())...)
		for _, n := range c.Nodes {
			bits(n.TrueDieC())
			bits(n.Sensor.Read())
			bits(n.Fan.Duty())
			bits(n.CPU.FreqGHz())
			bits(n.Power().Total())
		}
		sig = append(sig, '\n')
	}))
	c.RunGenerator(workload.Constant(0.9), 10*time.Second)
	sig = append(sig, []byte(plane.Timeline())...)
	return sig
}

// TestFaultTimelineByteIdenticalAcrossWorkers extends the tentpole
// byte-identical invariant to the fault plane: the same seed yields the
// same fault timeline AND the same faulted device trajectories for any
// worker count. Run under -race in the full gate.
func TestFaultTimelineByteIdenticalAcrossWorkers(t *testing.T) {
	forceProcs(t, 4)
	want := faultSignature(t, 1)
	if len(want) == 0 {
		t.Fatal("empty signature")
	}
	for _, workers := range []int{2, 8} {
		got := faultSignature(t, workers)
		if string(got) != string(want) {
			t.Errorf("workers=%d: fault-injected trajectory diverged from serial (len %d vs %d)",
				workers, len(got), len(want))
		}
	}
}

func TestApplyFaultsRejectsUnknownTarget(t *testing.T) {
	c, err := New(2, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan := faults.Plan{Name: "bad", Schedules: []faults.Schedule{{
		Target: "node99",
		Episodes: []faults.Episode{{
			Kind: faults.SensorStuck, Start: 0, Duration: faults.Dur(time.Second),
		}},
	}}}
	if _, err := c.ApplyFaults(plan, 1); err == nil {
		t.Fatal("plan targeting an unknown node accepted")
	}
}

func TestApplyFaultsInjects(t *testing.T) {
	c, err := New(1, DefaultDt, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Settle(0)
	plan := faults.Plan{Name: "stall", Schedules: []faults.Schedule{{
		Target: c.Nodes[0].Name,
		Episodes: []faults.Episode{{
			Kind: faults.FanStall, Start: 0, Duration: faults.Dur(time.Hour),
		}},
	}}}
	if _, err := c.ApplyFaults(plan, 3); err != nil {
		t.Fatal(err)
	}
	c.Nodes[0].Fan.SetDuty(80)
	c.RunGenerator(workload.Constant(0.5), 5*time.Second)
	// The rotor spins down with first-order lag; after 5 s it must be
	// essentially stopped despite the 80% commanded duty.
	if rpm := c.Nodes[0].Fan.RPM(); rpm > 10 {
		t.Errorf("fan spinning at %.0f RPM through a hard-stall episode", rpm)
	}
}
