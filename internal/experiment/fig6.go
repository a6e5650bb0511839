package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/trace"
)

// Fig6Row is one fan method's outcome on BT.B.4.
type Fig6Row struct {
	Method     string        // ControlSpec fan technique: dynamic, static or constant
	Temp       *trace.Series // node-0 temperature
	Duty       *trace.Series // node-0 duty
	PeakDuty   float64       // paper: dynamic rises past 45%, static ~32%
	SteadyC    float64       // temperature once stabilized
	PeakC      float64
	StabilizeS float64 // seconds until temperature settles into ±0.75 °C of final
	FanEnergyJ float64 // fan electrical energy — the cost of constant control
	ExecS      float64
}

// Fig6Result compares dynamic, traditional-static and constant fan
// control on BT.B.4 over four nodes (Pp=50, max duty 75%).
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 runs the three-way comparison.
func Fig6(seed uint64) (*Fig6Result, error) {
	res := &Fig6Result{}
	for _, m := range []string{"dynamic", "static", "constant"} {
		row, err := fig6Run(seed, m)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func fig6Run(seed uint64, method string) (Fig6Row, error) {
	rig, err := build(4, seed, "bt", control(method, "none", 50, 75))
	if err != nil {
		return Fig6Row{}, err
	}
	c := rig.Cluster
	defer c.Close()
	p := newProbe(c, 250*time.Millisecond)
	run := c.RunProgram(*rig.Program, 0)

	temp := p.rec.Series("n0_temp")
	duty := p.rec.Series("n0_duty")
	row := Fig6Row{
		Method:     method,
		Temp:       temp,
		Duty:       duty,
		PeakDuty:   duty.Max(),
		SteadyC:    temp.MeanAfter(run.ExecTime / 2),
		PeakC:      temp.Max(),
		StabilizeS: temp.StabilizationTime(0.75).Seconds(),
		ExecS:      run.ExecTime.Seconds(),
	}
	var fanJ float64
	for _, n := range c.Nodes {
		fanJ += n.Meter.FanEnergyJ()
	}
	row.FanEnergyJ = fanJ / float64(len(c.Nodes))
	return row, nil
}

// Row returns the row for the given fan technique, or nil.
func (r *Fig6Result) Row(m string) *Fig6Row {
	for i := range r.Rows {
		if r.Rows[i].Method == m {
			return &r.Rows[i]
		}
	}
	return nil
}

// String prints the Figure 6 summary.
func (r *Fig6Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6: fan methods on BT.B.4 (4 nodes, Pp=50, max duty 75%%)\n")
	fmt.Fprintf(&sb, "  %-10s %-10s %-11s %-9s %-12s %-12s\n",
		"method", "peak duty", "steady degC", "peak degC", "stabilize s", "fan energy J")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-10s %-10.1f %-11.2f %-9.2f %-12.1f %-12.1f\n",
			row.Method, row.PeakDuty, row.SteadyC, row.PeakC, row.StabilizeS, row.FanEnergyJ)
	}
	fmt.Fprintf(&sb, "  (paper: dynamic proactively exceeds 45%% duty vs static 32%%;\n")
	fmt.Fprintf(&sb, "   dynamic stabilizes sooner & lower; constant-75%% coldest, costliest)\n")
	return sb.String()
}
