package core

import (
	"time"

	"thermctl/internal/metrics"
)

// HoldFloorHook returns the coordination rule of the paper's unified
// in-band + out-of-band controller (§4.4), as the pre-round hook of the
// fan lane on an Engine whose tDVFS lane steps first.
//
// The rule closes a feedback fight the two loops otherwise develop:
// after tDVFS scales the frequency down, the die cools, the fan
// controller sees falling temperature and relaxes the duty cycle, the
// heat returns, and tDVFS re-triggers one step deeper — a staircase
// into the lowest P-state that squanders performance to save fan power.
// Under a unified controller the out-of-band knob must not relax while
// the in-band knob is paying performance for the same degrees, so while
// tDVFS is engaged (running below the nominal frequency) the fan
// policy's index is held against downward moves. Upward fan moves
// remain allowed: more out-of-band cooling is exactly what lets tDVFS
// restore the nominal frequency sooner.
//
// "Coupled controllers" is therefore ordering plus this hook, not a
// bespoke loop. The hook runs only on fan rounds: engagement changes
// only at tDVFS rounds, and the fan policy reads the floor only when it
// decides. holdRounds is nil-safe (see NewHoldRoundsCounter) and counts
// the fan rounds taken with the floor held.
func HoldFloorHook(fan *CtlArrayPolicy, dvfs *ThresholdPolicy, holdRounds *metrics.Counter) func(time.Duration) {
	return func(time.Duration) {
		engaged := dvfs.Engaged()
		if engaged {
			holdRounds.Inc()
		}
		fan.SetHoldFloor(engaged)
	}
}
