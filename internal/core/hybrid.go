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
// binding behind a pre-step hook that transfers the engagement state —
// so "coupled controllers" is ordering plus one hook, not a bespoke
// loop.
type Hybrid struct {
	// Fan is the dynamic fan controller (out-of-band knob).
	Fan *Controller
	// DVFS is the tDVFS daemon (in-band knob).
	DVFS *TDVFS

	eng *Engine

	// holdSteps is the optional nil-safe coordination counter (see
	// InstrumentMetrics in metrics.go).
	holdSteps *metrics.Counter
}

// NewHybrid couples the two controllers.
func NewHybrid(fan *Controller, dvfs *TDVFS) *Hybrid {
	h := &Hybrid{Fan: fan, DVFS: dvfs, eng: NewEngine()}
	h.eng.Attach(dvfs.Binding(), nil)
	h.eng.Attach(fan.Binding(), func(time.Duration) {
		engaged := dvfs.Engaged()
		if engaged {
			h.holdSteps.Inc()
		}
		fan.SetHoldFloor(engaged)
	})
	return h
}

// Engine exposes the two-lane engine hosting the coupled controllers.
func (h *Hybrid) Engine() *Engine { return h.eng }

// OnStep implements the cluster Controller interface: the DVFS daemon
// decides first, then the fan controller runs with its floor held if
// the in-band knob is engaged.
func (h *Hybrid) OnStep(now time.Duration) { h.eng.OnStep(now) }
