package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/trace"
	"thermctl/internal/workload"
)

// Fig8Result reproduces Figure 8: tDVFS coupled with traditional static
// fan control (max duty 25%) while LU executes on four nodes, followed
// by an idle tail during which the daemon restores the nominal
// frequency.
type Fig8Result struct {
	Temp *trace.Series // node-0 temperature
	Freq *trace.Series // node-0 frequency (GHz)

	Downscales uint64 // frequency reductions during the run (node 0)
	Upscales   uint64 // restores (node 0)
	MinFreqGHz float64
	EndFreqGHz float64 // after the idle tail: must be back to nominal
	SteadyC    float64
	ExecS      float64
}

// Fig8 runs the experiment: threshold 51 °C, Pp=50, static fan capped
// at 25% duty.
func Fig8(seed uint64) (*Fig8Result, error) {
	rig, err := build(4, seed, "lu", control("static", "tdvfs", 50, 25))
	if err != nil {
		return nil, err
	}
	c := rig.Cluster
	defer c.Close()
	rec := newProbe(c, 250*time.Millisecond)

	run := c.RunProgram(*rig.Program, 0)
	// Idle tail: the application has exited; temperature decays and
	// tDVFS restores the nominal frequency (the right edge of the
	// paper's Figure 8).
	c.RunGenerator(workload.Constant(0.02), 3*time.Minute)

	temp := rec.Series("n0_temp")
	freq := rec.Series("n0_freq")
	return &Fig8Result{
		Temp:       temp,
		Freq:       freq,
		Downscales: rig.Nodes[0].TDVFS.Downscales(),
		Upscales:   rig.Nodes[0].TDVFS.Upscales(),
		MinFreqGHz: freq.Min(),
		EndFreqGHz: freq.Last(),
		SteadyC:    temp.MeanAfter(run.ExecTime / 2),
		ExecS:      run.ExecTime.Seconds(),
	}, nil
}

// String prints the Figure 8 summary.
func (r *Fig8Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8: tDVFS + traditional static fan (max 25%%), LU on 4 nodes\n")
	fmt.Fprintf(&sb, "  exec time: %.1f s, steady temp: %.2f degC\n", r.ExecS, r.SteadyC)
	fmt.Fprintf(&sb, "  node-0 scale-downs: %d, restores: %d\n", r.Downscales, r.Upscales)
	fmt.Fprintf(&sb, "  lowest frequency: %.1f GHz, frequency after idle tail: %.1f GHz\n",
		r.MinFreqGHz, r.EndFreqGHz)
	fmt.Fprintf(&sb, "  (paper: scales 2.4->2.2 only when consistently above 51 degC,\n")
	fmt.Fprintf(&sb, "   restores once consistently below; ignores short-term spikes)\n")
	return sb.String()
}
