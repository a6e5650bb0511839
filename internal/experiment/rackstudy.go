package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/core"
	"thermctl/internal/node"
	"thermctl/internal/rack"
	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

// RackRow is one slot's outcome in the rack study. FanDuty is the duty
// averaged over the run: the instantaneous duty dithers with sensor
// noise, but the time average robustly shows which slot's fan worked
// harder.
type RackRow struct {
	Slot    int
	InletC  float64
	DieC    float64
	FanDuty float64
	FreqGHz float64
}

// RackStudyResult contrasts a fixed equal fan speed against per-node
// unified control on a rack with hot-air recirculation.
type RackStudyResult struct {
	Fixed   []RackRow
	Unified []RackRow
}

// RackStudy builds a 4-slot rack with recirculation coupling, loads it
// with cpu-burn for ten minutes, and records the steady per-slot state
// under (a) an equal fixed 45% duty everywhere and (b) the unified
// controller per node.
func RackStudy(seed uint64) (*RackStudyResult, error) {
	res := &RackStudyResult{}
	for _, unified := range []bool{false, true} {
		rows, err := rackRun(seed, unified)
		if err != nil {
			return nil, err
		}
		if unified {
			res.Unified = rows
		} else {
			res.Fixed = rows
		}
	}
	return res, nil
}

func rackRun(seed uint64, unified bool) ([]RackRow, error) {
	var nodes []*node.Node
	for i := 0; i < 4; i++ {
		// Per-slot seeds are mixed, not offset: an additive stride would
		// hand two studies whose seeds differ by a multiple of it the
		// same node noise streams.
		n, err := node.New(node.DefaultConfig(fmt.Sprintf("slot%d", i), rng.Mix(seed, uint64(i))))
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	c, err := cluster.NewWithNodes(nodes, cluster.DefaultDt)
	if err != nil {
		return nil, err
	}
	c.SetWorkers(Workers)
	defer c.Close()
	c.Settle(1)
	r, err := rack.New(rack.Default(), nodes)
	if err != nil {
		return nil, err
	}
	// The rack's recirculation model runs in the pre-controller phase.
	c.AddController(r)
	if unified {
		if _, err := config.AttachControl(c, control("dynamic", "tdvfs", 50, 100), nil, nil); err != nil {
			return nil, err
		}
	} else {
		for _, n := range nodes {
			port := &core.SysfsFanPort{FS: n.FS, Chip: n.Hwmon}
			if err := port.SetDutyPercent(45); err != nil {
				return nil, err
			}
		}
	}
	// Average each slot's duty over the run: the per-step duty dithers
	// with sensor noise around the controller's operating point.
	dutySum := make([]float64, len(nodes))
	steps := 0
	c.AddController(cluster.ControllerFunc(func(time.Duration) {
		for i, n := range nodes {
			dutySum[i] += n.Fan.Duty()
		}
		steps++
	}))
	c.RunGenerator(workload.Constant(1), 10*time.Minute)

	rows := make([]RackRow, len(nodes))
	for i, n := range nodes {
		rows[i] = RackRow{
			Slot:    i,
			InletC:  r.InletC(i),
			DieC:    n.TrueDieC(),
			FanDuty: dutySum[i] / float64(steps),
			FreqGHz: n.CPU.FreqGHz(),
		}
	}
	return rows, nil
}

// String prints both configurations side by side.
func (r *RackStudyResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: 4-slot rack with hot-air recirculation, cpu-burn everywhere\n")
	fmt.Fprintf(&sb, "  %-5s | %-28s | %-28s\n", "", "fixed 45% duty", "unified control (Pp=50)")
	fmt.Fprintf(&sb, "  %-5s | %-8s %-9s %-8s | %-8s %-9s %-8s\n",
		"slot", "inlet", "die degC", "duty", "inlet", "die degC", "duty")
	for i := range r.Fixed {
		f, u := r.Fixed[i], r.Unified[i]
		fmt.Fprintf(&sb, "  %-5d | %-8.2f %-9.2f %-8.1f | %-8.2f %-9.2f %-8.1f\n",
			i, f.InletC, f.DieC, f.FanDuty, u.InletC, u.DieC, u.FanDuty)
	}
	fmt.Fprintf(&sb, "  (the hot top slot gets proportionally more fan under unified control)\n")
	return sb.String()
}
