package experiment

// Extension experiments beyond the paper's evaluation, exercising the
// paper's motivation (§1: thermal emergencies slow or shut down
// systems) and its stated future work (§5: "how our thermal controllers
// scale in large-scale clusters").

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/core"
	"thermctl/internal/node"
	"thermctl/internal/trace"
	"thermctl/internal/workload"
)

// FanFailureRow is one control configuration's outcome after a fan
// failure.
type FanFailureRow struct {
	Config       string
	Emergencies  uint64
	ProtectedS   float64 // time under hardware clamp
	PeakC        float64
	FinalFreqGHz float64
	TDVFSRescues uint64 // tDVFS downscales after the failure
}

// FanFailureResult compares how the system rides out a seized CPU fan
// under three configurations: no thermal daemon at all (only the
// hardware trip point), the traditional static fan controller (blind —
// it commands a dead fan), and tDVFS (which rescues the node in-band).
type FanFailureResult struct {
	FailAtS float64
	Rows    []FanFailureRow
}

// FanFailure runs cpu-burn on one node, seizes the fan at t=90 s, and
// continues for ten more minutes under each configuration.
func FanFailure(seed uint64) (*FanFailureResult, error) {
	const failAtS = 90
	setups := []string{"unprotected", "static-fan", "tDVFS"}
	rows, err := sweep(len(setups), func(i int) (FanFailureRow, error) {
		return fanFailureRun(seed, setups[i], failAtS)
	})
	if err != nil {
		return nil, err
	}
	return &FanFailureResult{FailAtS: failAtS, Rows: rows}, nil
}

func fanFailureRun(seed uint64, setup string, failAtS float64) (FanFailureRow, error) {
	cfg := node.DefaultConfig("fanfail-"+setup, seed)
	cfg.ProtectC = 66 // within reach of a dead fan under cpu-burn
	n, err := node.New(cfg)
	if err != nil {
		return FanFailureRow{}, err
	}
	n.Settle(0)

	cs := chipAuto
	switch setup {
	case "unprotected":
		// Fan pinned at a healthy 50% until it dies; nothing reacts.
		port := core.NewSysfsFanPort(n.FS, n.Hwmon)
		if err := port.SetDutyPercent(50); err != nil {
			return FanFailureRow{}, err
		}
	case "static-fan":
		cs = control("static", "none", 50, 100)
	case "tDVFS":
		cs = control("static", "tdvfs", 50, 100)
	}
	nc, err := cs.BuildNode(n, config.NodeOptions{})
	if err != nil {
		return FanFailureRow{}, err
	}
	controllers, dvfs := nc.Controllers, nc.TDVFS

	n.SetGenerator(workload.NewCPUBurn(nil))
	peak := &trace.Series{}
	var downsBefore uint64
	dt := 250 * time.Millisecond
	total := 12 * time.Minute
	failed := false
	for n.Elapsed() < total {
		n.Step(dt)
		for _, c := range controllers {
			c.OnStep(n.Elapsed())
		}
		if !failed && n.Elapsed().Seconds() >= failAtS {
			failed = true
			n.Fan.SetFailed(true)
			if dvfs != nil {
				downsBefore = dvfs.Downscales()
			}
		}
		peak.Add(n.Elapsed(), n.TrueDieC())
	}

	row := FanFailureRow{
		Config:       setup,
		Emergencies:  n.Emergencies(),
		ProtectedS:   n.ProtectedTime().Seconds(),
		PeakC:        peak.Max(),
		FinalFreqGHz: n.CPU.FreqGHz(),
	}
	if dvfs != nil {
		row.TDVFSRescues = dvfs.Downscales() - downsBefore
	}
	return row, nil
}

// Row returns the named configuration's row, or nil.
//
//thermlint:allow deadcode -- oracle: the root benchmarks and experiment tests read results through it
func (r *FanFailureResult) Row(config string) *FanFailureRow {
	for i := range r.Rows {
		if r.Rows[i].Config == config {
			return &r.Rows[i]
		}
	}
	return nil
}

// String prints the comparison.
func (r *FanFailureResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: CPU fan seizes at t=%.0f s under cpu-burn (trip point 66 degC)\n", r.FailAtS)
	fmt.Fprintf(&sb, "  %-12s %-12s %-12s %-9s %-10s %-8s\n",
		"config", "emergencies", "clamped s", "peak degC", "final GHz", "rescues")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-12s %-12d %-12.1f %-9.2f %-10.1f %-8d\n",
			row.Config, row.Emergencies, row.ProtectedS, row.PeakC, row.FinalFreqGHz, row.TDVFSRescues)
	}
	fmt.Fprintf(&sb, "  (tDVFS rescues the node in-band before the hardware trip point,\n")
	fmt.Fprintf(&sb, "   avoiding the uncontrolled emergency slowdown)\n")
	return sb.String()
}

// ScalingRow is one cluster size's outcome.
type ScalingRow struct {
	Nodes       int
	ExecS       float64
	IdealS      float64
	OverheadPct float64 // (exec-ideal)/ideal
	MaxTempC    float64
	TempSpreadC float64 // hottest minus coolest node steady temp
	Triggers    int     // nodes whose tDVFS engaged
}

// ScalingResult is the future-work scaling study: the unified
// controller on growing clusters.
type ScalingResult struct {
	Rows []ScalingRow
}

// Scaling runs a shortened BT-like program under the hybrid controller
// on clusters of 2, 4, 8 and 16 nodes. Per-node controllers are fully
// decentralized, so the question is whether barrier coupling amplifies
// per-node thermal decisions into cluster-wide slowdown as the size
// grows.
func Scaling(seed uint64) (*ScalingResult, error) {
	prog := workload.Uniform("mini-BT", 120, workload.Iteration{
		ComputeGC: 1.729, ComputeUtil: 1.0, MemSec: 0.175, CommSec: 0.175, CommUtil: 0.10,
	})
	// The 16-node run costs about as much as the other three together,
	// so it starts first; the rows are reported by size.
	sizes := []int{16, 2, 4, 8}
	rows, err := sweep(len(sizes), func(i int) (ScalingRow, error) { return scalingRun(seed, prog, sizes[i]) })
	if err != nil {
		return nil, err
	}
	slices.SortFunc(rows, func(a, b ScalingRow) int { return a.Nodes - b.Nodes })
	return &ScalingResult{Rows: rows}, nil
}

func scalingRun(seed uint64, prog workload.Program, size int) (ScalingRow, error) {
	rig, err := build(size, seed, "", control("dynamic", "tdvfs", 50, 30))
	if err != nil {
		return ScalingRow{}, err
	}
	c := rig.Cluster
	defer c.Close()
	run := c.RunProgram(prog, 0)

	row := ScalingRow{
		Nodes:  size,
		ExecS:  run.ExecTime.Seconds(),
		IdealS: prog.IdealSeconds(2.4),
	}
	row.OverheadPct = (row.ExecS - row.IdealS) / row.IdealS * 100
	lo, hi := 1e9, -1e9
	for _, n := range c.Nodes {
		t := n.TrueDieC()
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	row.MaxTempC, row.TempSpreadC = hi, hi-lo
	for _, nc := range rig.Nodes {
		if _, ok := nc.TDVFS.TriggeredAt(); ok {
			row.Triggers++
		}
	}
	return row, nil
}

// String prints the scaling table.
func (r *ScalingResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: unified controller vs cluster size (mini-BT, Pp=50, cap 30%%)\n")
	fmt.Fprintf(&sb, "  %-7s %-9s %-9s %-11s %-10s %-12s %-9s\n",
		"nodes", "exec s", "ideal s", "overhead %", "max degC", "spread degC", "triggers")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-7d %-9.1f %-9.1f %-11.2f %-10.2f %-12.2f %-9d\n",
			row.Nodes, row.ExecS, row.IdealS, row.OverheadPct, row.MaxTempC,
			row.TempSpreadC, row.Triggers)
	}
	fmt.Fprintf(&sb, "  (decentralized per-node control: overhead should grow slowly with size)\n")
	return sb.String()
}
