package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"thermctl/internal/trace"
)

// Fig10Row is one hybrid policy's outcome.
type Fig10Row struct {
	Pp         int
	Temp       *trace.Series
	Freq       *trace.Series
	AvgTempC   float64
	TriggeredS float64 // when tDVFS first scaled down; NaN if never
	Triggered  bool
	MinFreqGHz float64
	ExecS      float64
	AvgPowerW  float64
}

// Fig10Result is the hybrid fan+DVFS experiment: one Pp applied to both
// knobs, max duty 50%, threshold 51 °C, BT.B.4 on four nodes.
type Fig10Result struct {
	Rows []Fig10Row // Pp = 75, 50, 25
}

// Fig10 runs the hybrid controller at each policy.
func Fig10(seed uint64) (*Fig10Result, error) {
	res := &Fig10Result{}
	for _, pp := range []int{75, 50, 25} {
		row, err := fig10Run(seed, pp)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func fig10Run(seed uint64, pp int) (Fig10Row, error) {
	rig, err := build(4, seed, "bt", control("dynamic", "tdvfs", pp, 50))
	if err != nil {
		return Fig10Row{}, err
	}
	c := rig.Cluster
	defer c.Close()
	p := newProbe(c, 250*time.Millisecond)
	run := c.RunProgram(*rig.Program, 0)

	temp := p.rec.Series("n0_temp")
	// The deepest frequency anywhere in the cluster: the trigger often
	// lands on whichever node's sensor runs warmest, not node 0.
	minFreq := math.Inf(1)
	for i := range c.Nodes {
		if s := p.rec.Series(fmt.Sprintf("n%d_freq", i)); s != nil && s.Min() < minFreq {
			minFreq = s.Min()
		}
	}
	row := Fig10Row{
		Pp:         pp,
		Temp:       temp,
		Freq:       p.rec.Series("n0_freq"),
		AvgTempC:   temp.MeanAfter(run.ExecTime / 4),
		MinFreqGHz: minFreq,
		ExecS:      run.ExecTime.Seconds(),
		AvgPowerW:  meterAvgW(c),
		TriggeredS: math.NaN(),
	}
	// Earliest trigger across the nodes: the cluster-visible onset of
	// in-band control.
	for _, nc := range rig.Nodes {
		if at, ok := nc.TDVFS.TriggeredAt(); ok {
			if !row.Triggered || at.Seconds() < row.TriggeredS {
				row.Triggered = true
				row.TriggeredS = at.Seconds()
			}
		}
	}
	return row, nil
}

// Row returns the row for policy pp, or nil.
func (r *Fig10Result) Row(pp int) *Fig10Row {
	for i := range r.Rows {
		if r.Rows[i].Pp == pp {
			return &r.Rows[i]
		}
	}
	return nil
}

// PerfSpreadPct returns the execution-time difference between Pp=25 and
// Pp=75 as a percentage of the Pp=75 time (paper: 4.76%).
func (r *Fig10Result) PerfSpreadPct() float64 {
	a, b := r.Row(25), r.Row(75)
	if a == nil || b == nil || b.ExecS == 0 {
		return 0
	}
	return (a.ExecS - b.ExecS) / b.ExecS * 100
}

// String prints the Figure 10 summary.
func (r *Fig10Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10: hybrid dynamic fan + tDVFS (max duty 50%%, threshold 51 degC)\n")
	fmt.Fprintf(&sb, "  %-6s %-11s %-13s %-10s %-8s %-10s\n",
		"Pp", "avg degC", "tDVFS at (s)", "min GHz", "exec s", "avg W")
	for _, row := range r.Rows {
		trig := "never"
		if row.Triggered {
			trig = fmt.Sprintf("%.0f", row.TriggeredS)
		}
		fmt.Fprintf(&sb, "  %-6d %-11.2f %-13s %-10.1f %-8.1f %-10.2f\n",
			row.Pp, row.AvgTempC, trig, row.MinFreqGHz, row.ExecS, row.AvgPowerW)
	}
	fmt.Fprintf(&sb, "  perf spread Pp=25 vs Pp=75: %.2f%% (paper: 4.76%%)\n", r.PerfSpreadPct())
	fmt.Fprintf(&sb, "  (paper: smaller Pp -> lower temp AND later tDVFS trigger)\n")
	return sb.String()
}
