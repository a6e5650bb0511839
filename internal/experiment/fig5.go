package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/trace"
	"thermctl/internal/workload"
)

// Fig5Row is one policy's outcome in the Figure 5 experiment.
type Fig5Row struct {
	Pp       int
	Temp     *trace.Series
	Duty     *trace.Series
	AvgDuty  float64 // paper: 70 (Pp=25), 53 (Pp=50), 36 (Pp=75)
	AvgTempC float64 // steady-state average; smaller Pp → lower
}

// Fig5Result holds the three policies' traces.
type Fig5Result struct {
	Rows []Fig5Row // ordered Pp = 75, 50, 25 as in the figure
}

// Fig5 runs cpu-burn for five minutes on one node under dynamic fan
// control at each policy Pp ∈ {75, 50, 25}, as in the paper's §4.2.
func Fig5(seed uint64) (*Fig5Result, error) {
	pps := []int{75, 50, 25}
	rows, err := sweep(len(pps), func(i int) (Fig5Row, error) { return fig5Run(seed, pps[i]) })
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Rows: rows}, nil
}

func fig5Run(seed uint64, pp int) (Fig5Row, error) {
	n, err := node.New(node.DefaultConfig(fmt.Sprintf("fig5-pp%d", pp), seed))
	if err != nil {
		return Fig5Row{}, err
	}
	n.Settle(0)
	nc, err := control("dynamic", "none", pp, 100).BuildNode(n, config.NodeOptions{})
	if err != nil {
		return Fig5Row{}, err
	}

	row := Fig5Row{
		Pp:   pp,
		Temp: &trace.Series{},
		Duty: &trace.Series{},
	}
	// Three instances of cpu-burn, i.e. sustained full load with
	// scheduler noise.
	n.SetGenerator(workload.NewCPUBurn(rng.New(seed + uint64(pp))))
	dt := 250 * time.Millisecond
	total := 5 * time.Minute
	frame := make([]float64, cluster.FrameWidth)
	for n.Elapsed() < total {
		n.Step(dt)
		nc.OnStep(n.Elapsed())
		cluster.SampleNode(n, frame)
		row.Temp.Add(n.Elapsed(), frame[cluster.FrameTemp])
		row.Duty.Add(n.Elapsed(), frame[cluster.FrameDuty])
	}
	// Steady-state statistics over the second half of the run, past the
	// warm-up transient.
	row.AvgDuty = row.Duty.MeanAfter(total / 2)
	row.AvgTempC = row.Temp.MeanAfter(total / 2)
	return row, nil
}

// Row returns the row for policy pp, or nil.
func (r *Fig5Result) Row(pp int) *Fig5Row {
	for i := range r.Rows {
		if r.Rows[i].Pp == pp {
			return &r.Rows[i]
		}
	}
	return nil
}

// String prints the Figure 5 summary.
func (r *Fig5Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: dynamic fan control under cpu-burn, policy sweep\n")
	fmt.Fprintf(&sb, "  %-6s %-14s %-14s\n", "Pp", "avg PWM duty", "avg temp (degC)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-6d %-14.1f %-14.2f\n", row.Pp, row.AvgDuty, row.AvgTempC)
	}
	fmt.Fprintf(&sb, "  (paper: duty 36/53/70 for Pp 75/50/25; smaller Pp -> lower temp)\n")
	return sb.String()
}
