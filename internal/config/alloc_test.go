package config

import (
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/core/window"
	"thermctl/internal/workload"
)

// TestControlledStepAllocationFree is the hot-path budget for every
// controller stack BuildNode wires: after warm-up, one control round
// of Cluster.Steps — node physics plus the node-local control phase —
// allocates nothing. Each measured call runs a whole history-window
// round (L1Size samples at the tuning's sample period: 4 × 250 ms, 20
// steps at cluster.DefaultDt), so an allocation made once per round
// cannot hide in AllocsPerRun's integer mean over single steps.
//
// DVFS "cpuspeed" is left out on purpose: the CPUSPEED daemon reads
// /proc/stat as kernel-formatted text every round and parses it, one
// allocation per round under a documented //thermlint:allow hotalloc,
// just as the real daemon reads the file.
func TestControlledStepAllocationFree(t *testing.T) {
	tune := Default()
	roundSteps := int(time.Duration(window.Default().L1Size) * tune.SamplePeriod() / cluster.DefaultDt)
	for _, fan := range []string{"dynamic", "static", "constant", "auto"} {
		for _, dvfs := range []string{"none", "tdvfs"} {
			for _, sleep := range []string{"none", "ctlarray"} {
				cs := ControlSpec{Fan: fan, DVFS: dvfs, Sleep: sleep}
				t.Run(fan+"/"+dvfs+"/"+sleep, func(t *testing.T) {
					s := Scenario{
						Nodes:   2,
						Seed:    5,
						Workers: 1,
						// A jitter load keeps every lane deciding and
						// actuating, not idling at a fixed point.
						Workload: &workload.Spec{Kind: workload.KindJitter, Low: 0.2, High: 1, PeriodMS: 20000},
						Control:  cs,
					}
					rig, err := s.Build()
					if err != nil {
						t.Fatal(err)
					}
					c := rig.Cluster
					defer c.Close()
					for i, n := range c.Nodes {
						n.SetGenerator(rig.Generators[i])
					}
					for i := 0; i < 400; i++ { // warm-up: fill the history windows
						c.Step()
					}
					round := func() {
						for i := 0; i < roundSteps; i++ {
							c.Step()
						}
					}
					if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
						t.Errorf("one control round (%d steps) allocates %v, want 0", roundSteps, allocs)
					}
				})
			}
		}
	}
}
