package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/workload"
)

// WorkloadRow is one kernel's thermal/power profile.
type WorkloadRow struct {
	Name string
	// ExecS is the execution time at 2.4 GHz.
	ExecS float64
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
	// Run 2k profiles program k at 2.4 GHz, run 2k+1 at 2.0 GHz.
	freqs := [2]float64{2.4, 2.0}
	runs, err := sweep(2*len(progs), func(i int) (workloadProfile, error) {
		return workloadRun(seed, progs[i/2], freqs[i%2])
	})
	if err != nil {
		return nil, err
	}
	res := &WorkloadStudyResult{}
	for i, prog := range progs {
		at24, at20 := runs[2*i], runs[2*i+1]
		res.Rows = append(res.Rows, WorkloadRow{
			Name:        prog.Name,
			ExecS:       at24.execS,
			SlowdownPct: (at20.execS/at24.execS - 1) * 100,
			AvgPowerW:   at24.avgW,
			PeakC:       at24.peakC,
		})
	}
	return res, nil
}

// workloadProfile is one workloadRun's outcome: the execution time, the
// average wall power per node and the hottest sensor reading.
type workloadProfile struct{ execS, avgW, peakC float64 }

// workloadRun executes prog on 4 nodes with the fan pinned at 50% duty
// and every CPU at freq GHz.
func workloadRun(seed uint64, prog workload.Program, freq float64) (workloadProfile, error) {
	rig, err := build(4, seed, "", chipAuto)
	if err != nil {
		return workloadProfile{}, err
	}
	c := rig.Cluster
	defer c.Close()
	for _, n := range c.Nodes {
		if err := n.FS.WriteInt(n.Hwmon.PWMEnable, 1); err != nil {
			return workloadProfile{}, err
		}
		if err := n.FS.WriteInt(n.Hwmon.PWM, 128); err != nil { // ≈50%
			return workloadProfile{}, err
		}
		if !n.CPU.SetFreqGHz(freq) {
			return workloadProfile{}, fmt.Errorf("no %v GHz state", freq)
		}
	}
	rec := newProbe(c, time.Second)
	run := c.RunProgram(prog, 0)
	p := workloadProfile{execS: run.ExecTime.Seconds(), avgW: meterAvgW(c), peakC: -1e9}
	for i := range c.Nodes {
		if s := rec.Series(fmt.Sprintf("n%d_temp", i)); s != nil && s.Max() > p.peakC {
			p.peakC = s.Max()
		}
	}
	return p, nil
}

// Row returns the named kernel's row, or nil.
//
//thermlint:allow deadcode -- oracle: the root benchmarks and experiment tests read results through it
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
