package cluster_test

// Auto-mode golden: the ADT7467's automatic fan curve (the paper's
// Figure 1) drives every fan, with no software controller attached, the
// stack a `fan: auto, dvfs: none, sleep: none` scenario builds. A
// hand-written fault plan puts a sensor dropout, a stuck sensor and a
// spike under the chip's monitoring cycle. The trace records every step
// at full float precision, so any change to the device models' arithmetic
// or to the order of their noise draws shows up as a diff.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/faults"
	"thermctl/internal/tracefile"
	"thermctl/internal/workload"
)

// autoFaultPlan schedules the sensor faults the chip must ride through:
// a dropout (both duty and alarm freeze), a stuck reading, a spike large
// enough to trip the default 81 °C high limit, and on node3 a spike and a
// dropout that overlap plus a worn fan bearing.
func autoFaultPlan() faults.Plan {
	s := func(d time.Duration) faults.Dur { return faults.Dur(d) }
	return faults.Plan{Name: "auto-golden", Schedules: []faults.Schedule{
		{Target: "node0", Episodes: []faults.Episode{
			{Kind: faults.SensorDropout, Start: s(5 * time.Second), Duration: s(4 * time.Second)},
		}},
		{Target: "node1", Episodes: []faults.Episode{
			{Kind: faults.SensorStuck, Start: s(10 * time.Second), Duration: s(6 * time.Second)},
		}},
		{Target: "node2", Episodes: []faults.Episode{
			{Kind: faults.SensorSpike, Start: s(15 * time.Second), Duration: s(3 * time.Second), Param: 45},
		}},
		{Target: "node3", Episodes: []faults.Episode{
			{Kind: faults.SensorSpike, Start: s(22 * time.Second), Duration: s(6 * time.Second), Param: 42},
			{Kind: faults.SensorDropout, Start: s(24 * time.Second), Duration: s(2 * time.Second)},
			{Kind: faults.FanDegrade, Start: s(28 * time.Second), Duration: s(8 * time.Second), Param: 0.6},
		}},
	}}
}

// autoClusterTrace runs the scenario and returns one line per node per
// step, then each node's time_in_state residency and its alarm latch.
func autoClusterTrace(t *testing.T) []string {
	t.Helper()
	const seed = 20100131
	c, err := cluster.New(4, cluster.DefaultDt, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Settle(0.2)
	// ApplyFaults subscribes every node through node.AttachFaults; a
	// chaos spec would refuse a run with no software controller.
	if _, err := c.ApplyFaults(autoFaultPlan(), seed); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		n.SetGenerator(workload.Jitter{Low: 0.1 + 0.1*float64(i), High: 1, Period: time.Duration(2+i) * time.Second})
	}

	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	horizon := 40 * time.Second
	steps := int(horizon / cluster.DefaultDt)
	// No DVFS daemon runs, so the test itself rewrites scaling_setspeed
	// every 5 s, walking each node through the P-state table and giving
	// time_in_state residency in several states.
	pin := int(5 * time.Second / cluster.DefaultDt)
	var lines []string
	for s := 0; s < steps; s++ {
		if s%pin == 0 {
			for i, n := range c.Nodes {
				freqs := n.Scaler.AvailableKHz()
				if err := n.FS.WriteInt(n.Cpufreq.SetSpeed, freqs[(s/pin+i)%len(freqs)]); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.Step()
		for i, n := range c.Nodes {
			lines = append(lines, fmt.Sprintf("s=%d n=%d die=%s sink=%s duty=%s rpm=%s e=%s",
				s, i, g(n.Thermal.DieC()), g(n.Thermal.SinkC()), g(n.Fan.Duty()), g(n.Fan.RPM()), g(n.Meter.EnergyJ())))
		}
	}
	for i, n := range c.Nodes {
		tis := n.Scaler.TimeInState()
		line := fmt.Sprintf("n=%d time_in_state", i)
		for _, khz := range n.Scaler.AvailableKHz() {
			if ticks, ok := tis[khz]; ok {
				line += fmt.Sprintf(" %d:%d", khz, ticks)
			}
		}
		alarm, err := n.Drv.TempAlarm()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line, fmt.Sprintf("n=%d temp_alarm=%v", i, alarm))
	}
	return lines
}

func TestGoldenAutoCluster(t *testing.T) {
	path := filepath.Join("testdata", "golden", "auto-cluster.tct")
	got := autoClusterTrace(t)
	if *update {
		img, err := tracefile.EncodeEvents(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines, %d bytes)", path, len(got), len(img))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if err := tracefile.DiffEventLines(want, got); err != nil {
		t.Fatal(err)
	}
}
