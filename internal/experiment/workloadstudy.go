package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/trace"
	"thermctl/internal/workload"
)

// WorkloadRow is one kernel's thermal/power profile.
type WorkloadRow struct {
	Name string
	// ExecS and Exec20S are execution times at 2.4 and 2.0 GHz.
	ExecS   float64
	Exec20S float64
	// SlowdownPct is the 2.0 GHz slowdown — the in-band technique's
	// price on this kernel.
	SlowdownPct float64
	// AvgPowerW and PeakC characterize the thermal demand at nominal
	// frequency under a fixed 50% fan.
	AvgPowerW float64
	PeakC     float64
}

// WorkloadStudyResult profiles the NPB-like kernel suite: how much heat
// each kernel generates and what down-clocking costs it. The spread is
// the paper's §1 claim that "the behavior of parallel applications
// provides significant opportunities for power and thermal reductions"
// made quantitative: a memory-bound kernel offers nearly free in-band
// cooling, a compute-bound one pays full price.
type WorkloadStudyResult struct {
	Rows []WorkloadRow
}

// WorkloadStudy runs each kernel on 4 nodes with the fan pinned at 50%
// duty, at 2.4 GHz and again at 2.0 GHz.
func WorkloadStudy(seed uint64) (*WorkloadStudyResult, error) {
	progs := []workload.Program{
		workload.EPB4(), workload.BTB4(), workload.LUB4(),
		workload.MGB4(), workload.CGB4(),
	}
	res := &WorkloadStudyResult{}
	for _, prog := range progs {
		row := WorkloadRow{Name: prog.Name}
		var err error
		if row.ExecS, row.AvgPowerW, row.PeakC, err = workloadRun(seed, prog, 2.4); err != nil {
			return nil, err
		}
		if row.Exec20S, _, _, err = workloadRun(seed, prog, 2.0); err != nil {
			return nil, err
		}
		row.SlowdownPct = (row.Exec20S/row.ExecS - 1) * 100
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// workloadRun executes prog on 4 nodes with the fan pinned at 50% duty
// and every CPU at freq GHz, returning the execution time, the average
// wall power per node and the hottest sensor reading.
func workloadRun(seed uint64, prog workload.Program, freq float64) (execS, avgW, peakC float64, err error) {
	rig, err := build(4, seed, "", chipAuto)
	if err != nil {
		return 0, 0, 0, err
	}
	c := rig.Cluster
	defer c.Close()
	for _, n := range c.Nodes {
		if err := n.FS.WriteInt(n.Hwmon.PWMEnable, 1); err != nil {
			return 0, 0, 0, err
		}
		if err := n.FS.WriteInt(n.Hwmon.PWM, 128); err != nil { // ≈50%
			return 0, 0, 0, err
		}
		if !n.CPU.SetFreqGHz(freq) {
			return 0, 0, 0, fmt.Errorf("no %v GHz state", freq)
		}
	}
	p := newProbe(c, time.Second)
	run := c.RunProgram(prog, 0)
	return run.ExecTime.Seconds(), meterAvgW(c), maxAcross(p.rec, len(c.Nodes)), nil
}

func maxAcross(rec *trace.Recorder, nodes int) float64 {
	peak := -1e9
	for i := 0; i < nodes; i++ {
		if s := rec.Series(fmt.Sprintf("n%d_temp", i)); s != nil && s.Max() > peak {
			peak = s.Max()
		}
	}
	return peak
}

// Row returns the named kernel's row, or nil.
func (r *WorkloadStudyResult) Row(name string) *WorkloadRow {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// String prints the suite profile.
func (r *WorkloadStudyResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: NPB-like kernel suite, 4 nodes, fan pinned at 50%%\n")
	fmt.Fprintf(&sb, "  %-8s %-10s %-10s %-9s %-10s\n",
		"kernel", "exec s", "avg W", "peak degC", "2.0GHz cost")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-8s %-10.1f %-10.2f %-9.2f %+.1f%%\n",
			row.Name, row.ExecS, row.AvgPowerW, row.PeakC, row.SlowdownPct)
	}
	fmt.Fprintf(&sb, "  (memory-bound kernels offer near-free in-band cooling;\n")
	fmt.Fprintf(&sb, "   compute-bound ones pay the full frequency ratio)\n")
	return sb.String()
}
