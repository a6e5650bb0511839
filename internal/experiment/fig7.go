package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/trace"
)

// Fig7Row is one maximum-duty cap's outcome.
type Fig7Row struct {
	MaxDuty float64
	Temp    *trace.Series
	Duty    *trace.Series
	SteadyC float64
	AvgDuty float64
}

// Fig7Result is the maximum-PWM sweep of the paper's Figure 7: dynamic
// fan control (Pp=50) with the cap emulating fans of different
// capability.
type Fig7Result struct {
	Rows []Fig7Row // caps 25, 50, 75, 100
}

// Fig7 runs BT.B.4 under each duty cap.
func Fig7(seed uint64) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, cap := range []float64{25, 50, 75, 100} {
		rig, err := build(4, seed, "bt", control("dynamic", "none", 50, cap))
		if err != nil {
			return nil, err
		}
		c := rig.Cluster
		rec := newProbe(c, 250*time.Millisecond)
		run := c.RunProgram(*rig.Program, 0)
		c.Close()

		temp := rec.Series("n0_temp")
		duty := rec.Series("n0_duty")
		res.Rows = append(res.Rows, Fig7Row{
			MaxDuty: cap,
			Temp:    temp,
			Duty:    duty,
			SteadyC: temp.MeanAfter(run.ExecTime / 2),
			AvgDuty: duty.MeanAfter(run.ExecTime / 2),
		})
	}
	return res, nil
}

// Row returns the row with the given cap, or nil.
func (r *Fig7Result) Row(cap float64) *Fig7Row {
	for i := range r.Rows {
		if r.Rows[i].MaxDuty == cap {
			return &r.Rows[i]
		}
	}
	return nil
}

// Spread returns steady temperature at cap a minus at cap b.
func (r *Fig7Result) Spread(a, b float64) float64 {
	ra, rb := r.Row(a), r.Row(b)
	if ra == nil || rb == nil {
		return 0
	}
	return ra.SteadyC - rb.SteadyC
}

// String prints the Figure 7 summary.
func (r *Fig7Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: maximum PWM duty sweep on BT.B.4 (dynamic control, Pp=50)\n")
	fmt.Fprintf(&sb, "  %-10s %-12s %-10s\n", "max duty", "steady degC", "avg duty")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-10.0f %-12.2f %-10.1f\n", row.MaxDuty, row.SteadyC, row.AvgDuty)
	}
	fmt.Fprintf(&sb, "  spread 25%%->100%%: %.2f degC (paper: ~8)\n", r.Spread(25, 100))
	fmt.Fprintf(&sb, "  spread 50%%->75%%:  %.2f degC (paper: not significant)\n", r.Spread(50, 75))
	return sb.String()
}
