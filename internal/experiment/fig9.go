package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/trace"
)

// Fig9Row is one DVFS daemon's outcome under the weak-fan condition.
type Fig9Row struct {
	Daemon      string // "tDVFS" or "CPUSPEED"
	Temp        *trace.Series
	Freq        *trace.Series
	FinalC      float64 // temperature at the end of the run
	PeakC       float64
	LateSlope   float64 // °C per minute over the last third — rising or stabilized?
	Transitions uint64  // total frequency changes (all nodes)
	ExecS       float64
}

// Fig9Result compares tDVFS and CPUSPEED on BT.B.4 with dynamic fan
// control (Pp=50) capped at 25% duty — a fan too weak to hold the
// temperature alone, so DVFS must act.
type Fig9Result struct {
	Rows []Fig9Row
}

// Fig9 runs both daemons.
func Fig9(seed uint64) (*Fig9Result, error) {
	daemons := []string{"CPUSPEED", "tDVFS"}
	rows, err := sweep(len(daemons), func(i int) (Fig9Row, error) { return fig9Run(seed, daemons[i]) })
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Rows: rows}, nil
}

func fig9Run(seed uint64, daemon string) (Fig9Row, error) {
	rig, err := build(4, seed, "bt", control("dynamic", dvfsTechnique(daemon), 50, 25))
	if err != nil {
		return Fig9Row{}, err
	}
	c := rig.Cluster
	defer c.Close()
	rec := newProbe(c, 250*time.Millisecond)
	run := c.RunProgram(*rig.Program, 0)

	temp := rec.Series("n0_temp")
	row := Fig9Row{
		Daemon:      daemon,
		Temp:        temp,
		Freq:        rec.Series("n0_freq"),
		FinalC:      temp.MeanAfter(run.ExecTime - 15*time.Second),
		PeakC:       temp.Max(),
		Transitions: totalTransitions(c),
		ExecS:       run.ExecTime.Seconds(),
	}
	// Late-run slope: mean of the last sixth minus mean of the
	// preceding sixth, scaled to °C/minute.
	last := temp.MeanAfter(run.ExecTime * 5 / 6)
	prevWindow := &trace.Series{}
	for _, pt := range temp.Points {
		if pt.T >= run.ExecTime*4/6 && pt.T < run.ExecTime*5/6 {
			prevWindow.Add(pt.T, pt.V)
		}
	}
	span := run.ExecTime.Seconds() / 6 / 60 // window separation in minutes
	if span > 0 && prevWindow.Len() > 0 {
		row.LateSlope = (last - prevWindow.Mean()) / span
	}
	return row, nil
}

// Row returns the row for the named daemon, or nil.
func (r *Fig9Result) Row(daemon string) *Fig9Row {
	for i := range r.Rows {
		if r.Rows[i].Daemon == daemon {
			return &r.Rows[i]
		}
	}
	return nil
}

// String prints the Figure 9 summary.
func (r *Fig9Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9: tDVFS vs CPUSPEED, BT.B.4, dynamic fan Pp=50, max duty 25%%\n")
	fmt.Fprintf(&sb, "  %-9s %-11s %-10s %-16s %-12s %-8s\n",
		"daemon", "final degC", "peak degC", "late slope C/min", "freq changes", "exec s")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-9s %-11.2f %-10.2f %-16.2f %-12d %-8.1f\n",
			row.Daemon, row.FinalC, row.PeakC, row.LateSlope, row.Transitions, row.ExecS)
	}
	fmt.Fprintf(&sb, "  (paper: temperature keeps increasing under CPUSPEED,\n")
	fmt.Fprintf(&sb, "   stabilizes under tDVFS)\n")
	return sb.String()
}
