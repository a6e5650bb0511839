package core

import (
	"time"

	"thermctl/internal/metrics"
)

// Hybrid is the unified in-band + out-of-band controller of the paper's
// §4.4: one dynamic fan controller and one tDVFS daemon driven by the
// same policy parameter, with explicit coordination between them.
//
// The coordination rule closes a feedback fight the two loops otherwise
// develop: after tDVFS scales the frequency down, the die cools, the
// fan controller sees falling temperature and relaxes the duty cycle,
// the heat returns, and tDVFS re-triggers one step deeper — a staircase
// into the lowest P-state that squanders performance to save fan power.
// Under a unified controller the out-of-band knob must not relax while
// the in-band knob is paying performance for the same degrees, so while
// tDVFS is engaged (running below the nominal frequency) the fan
// controller's index is held against downward moves. Upward fan moves
// remain allowed: more out-of-band cooling is exactly what lets tDVFS
// restore the nominal frequency sooner.
//
// Since the control-plane unification the coordination is expressed as
// an Engine of two lanes — the tDVFS binding first, then the fan
// binding behind a pre-round hook that transfers the engagement state —
// so "coupled controllers" is ordering plus one hook, not a bespoke
// loop. The hook runs only on fan rounds: engagement changes only at
// tDVFS rounds, and the fan policy reads the floor only when it
// decides. Both lanes sample one sensor, and the engine reads it once
// per round and hands that sample to both, as the paper's controller
// drives both knobs from one 4 Hz reading.
type Hybrid struct {
	// Fan is the dynamic fan controller (out-of-band knob).
	Fan *Controller
	// DVFS is the tDVFS daemon (in-band knob).
	DVFS *TDVFS

	eng *Engine

	// holdRounds is the optional nil-safe coordination counter (see
	// InstrumentMetrics in metrics.go): fan rounds with the floor held.
	holdRounds *metrics.Counter
}

// NewHybrid couples the two controllers. Both must be built on one
// temperature reader, as ControlSpec.BuildNode builds them: the engine
// is built on that reader (the fan controller's) and reads it once per
// round for both lanes.
func NewHybrid(fan *Controller, dvfs *TDVFS) *Hybrid {
	h := &Hybrid{Fan: fan, DVFS: dvfs, eng: NewEngine(fan.b.read)}
	h.eng.Attach(dvfs.Binding(), nil)
	h.eng.Attach(fan.Binding(), func(time.Duration) {
		engaged := dvfs.Engaged()
		if engaged {
			h.holdRounds.Inc()
		}
		fan.SetHoldFloor(engaged)
	})
	return h
}

// NextDue forwards the engine's; implements cluster.Scheduled.
func (h *Hybrid) NextDue() time.Duration { return h.eng.NextDue() }

// OnStep implements the cluster Controller interface: the DVFS daemon
// decides first, then the fan controller runs with its floor held if
// the in-band knob is engaged.
func (h *Hybrid) OnStep(now time.Duration) { h.eng.OnStep(now) }
