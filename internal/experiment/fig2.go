package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/core/window"
	"thermctl/internal/node"
	"thermctl/internal/trace"
	"thermctl/internal/workload"
)

// Fig2Result reproduces Figure 2: a CPU thermal profile at constant fan
// speed exhibiting the three behaviour types, and the two-level window's
// classification of each phase.
type Fig2Result struct {
	// Temp is the recorded die-temperature series at 4 Hz.
	Temp *trace.Series
	// Labels holds one classification per completed window round.
	Labels []window.Behavior
	// The counters tally classifications inside the profile's sudden
	// onset (30-45 s), jitter (95-150 s) and gradual-ramp (160-230 s)
	// segments respectively.
	SuddenInOnset  int
	JitterInJitter int //thermlint:allow deadcode -- read only by BenchmarkFig2ThermalTypes; no report prints it
	GradualInRamp  int
	RoundsInOnset  int
	RoundsInJitter int
	RoundsInRamp   int
	// FalseSuddenInJitter counts jitter-segment rounds misread as
	// sudden — the failure mode the two-level window exists to avoid.
	FalseSuddenInJitter int
	// NoReactInJitter counts jitter-segment rounds labelled jitter or
	// steady, i.e. rounds where a controller keyed on the window takes
	// no action. Physically the thermal mass damps short utilization
	// bursts into sub-threshold ripple, so "steady" is as correct an
	// outcome as "jitter"; what matters is not reacting.
	NoReactInJitter int
}

// Fig2 runs the Figure 2 profile on a single node with the fan pinned
// at a constant speed (as the paper's measurement was taken) and
// classifies every window round.
func Fig2(seed uint64) (*Fig2Result, error) {
	n, err := node.New(node.DefaultConfig("fig2", seed))
	if err != nil {
		return nil, err
	}
	n.Settle(0.05)
	// Constant fan speed, as in the paper's Figure 2 caption.
	if err := n.FS.WriteInt(n.Hwmon.PWMEnable, 1); err != nil {
		return nil, err
	}
	if err := n.FS.WriteInt(n.Hwmon.PWM, 128); err != nil { // ≈50%
		return nil, err
	}

	n.SetGenerator(workload.Fig2Profile())
	win := window.New(window.Default())

	res := &Fig2Result{Temp: &trace.Series{}}
	dt := 250 * time.Millisecond
	total := 300 * time.Second
	for n.Elapsed() < total {
		n.Step(dt)
		now := n.Elapsed()
		t := n.Sensor.Read()
		res.Temp.Add(now, t)
		if !win.Add(t) {
			continue
		}
		b := win.Classify()
		res.Labels = append(res.Labels, b)
		switch {
		case now > 30*time.Second && now <= 45*time.Second:
			res.RoundsInOnset++
			if b == window.Sudden {
				res.SuddenInOnset++
			}
		case now > 95*time.Second && now <= 150*time.Second:
			res.RoundsInJitter++
			if b == window.Jitter {
				res.JitterInJitter++
			}
			if b == window.Jitter || b == window.Steady {
				res.NoReactInJitter++
			}
			if b == window.Sudden {
				res.FalseSuddenInJitter++
			}
		case now > 160*time.Second && now <= 230*time.Second:
			res.RoundsInRamp++
			if b == window.Gradual || b == window.Sudden {
				// A strong ramp may legitimately read as sudden in
				// its steepest rounds; both are "responded to".
				res.GradualInRamp++
			}
		}
	}
	return res, nil
}

// String prints the Figure 2 summary.
func (r *Fig2Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2: thermal behaviour classification (4 Hz, constant fan)\n")
	fmt.Fprintf(&sb, "  profile: idle 30s | sudden onset | jitter | gradual ramp | idle\n")
	fmt.Fprintf(&sb, "  temp range: %.1f..%.1f degC\n", r.Temp.Min(), r.Temp.Max())
	fmt.Fprintf(&sb, "  sudden detected in onset segment:   %d/%d rounds\n", r.SuddenInOnset, r.RoundsInOnset)
	fmt.Fprintf(&sb, "  no reaction in jitter segment:      %d/%d rounds (false sudden: %d)\n",
		r.NoReactInJitter, r.RoundsInJitter, r.FalseSuddenInJitter)
	fmt.Fprintf(&sb, "  trend detected in gradual segment:  %d/%d rounds\n", r.GradualInRamp, r.RoundsInRamp)
	return sb.String()
}
