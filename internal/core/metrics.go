package core

import "thermctl/internal/metrics"

// This file wires the controller facades and the watchdog binding to
// the metrics layer.
// Registration happens here, at wiring time — never inside
// OnStep-reachable code (the metricsafe analyzer enforces that) — and
// the handles themselves are nil-safe, so an uninstrumented controller
// pays one predictable branch per event.
//
// The engine refactor split each controller's instruments into the
// engine-generic handles on its Binding (rounds, transitions, errors,
// fail-safe edges) and the policy-specific handles on its Policy; the
// facades install the historical metric names into both, so scrape
// surfaces are unchanged.

// InstrumentMetrics registers the controller's instruments on reg with
// the given constant labels and attaches them. Call it once at wiring
// time, before the control loop starts; hot paths only update the
// handles.
func (c *Controller) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	c.b.mt = bindingMetrics{
		rounds: reg.NewCounter("thermctl_controller_rounds_total",
			"completed temperature history-window rounds", labels...),
		modeTransitions: reg.NewCounter("thermctl_controller_mode_transitions_total",
			"applied actuator mode changes", labels...),
		errors: reg.NewCounter("thermctl_controller_errors_total",
			"failed sensor reads or actuator writes", labels...),
		escalations: reg.NewCounter("thermctl_controller_failsafe_escalations_total",
			"fail-safe escalations after consecutive read or actuation failures", labels...),
		recoveries: reg.NewCounter("thermctl_controller_failsafe_recoveries_total",
			"fail-safe releases after consecutive clean samples", labels...),
		failSafe: reg.NewGauge("thermctl_controller_failsafe",
			"1 while the fail-safe holds every actuator at its most effective mode", labels...),
	}
	c.pol.mt = ctlArrayMetrics{
		l2Fallbacks: reg.NewCounter("thermctl_controller_l2_fallbacks_total",
			"rounds deciding on the long-horizon delta-t-L2 predictor after delta-t-L1 produced no move", labels...),
		holdFloor: reg.NewGauge("thermctl_controller_hold_floor",
			"1 while downward fan moves are held by the hybrid coordinator", labels...),
	}
}

// InstrumentMetrics registers the daemon's instruments on reg with the
// given constant labels and attaches them. Wiring-time only. The
// binding's modeTransitions handle is deliberately left nil: tDVFS has
// always exported its mode changes as the downscales/upscales pair
// instead of a generic transition counter.
func (d *TDVFS) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	d.b.mt = bindingMetrics{
		rounds: reg.NewCounter("thermctl_tdvfs_rounds_total",
			"completed tDVFS history-window rounds", labels...),
		errors: reg.NewCounter("thermctl_tdvfs_errors_total",
			"failed sensor reads or frequency writes", labels...),
		escalations: reg.NewCounter("thermctl_tdvfs_failsafe_escalations_total",
			"fail-safe escalations after consecutive read or actuation failures", labels...),
		recoveries: reg.NewCounter("thermctl_tdvfs_failsafe_recoveries_total",
			"fail-safe releases after consecutive clean samples", labels...),
		failSafe: reg.NewGauge("thermctl_tdvfs_failsafe",
			"1 while the fail-safe holds the CPU at the frequency floor", labels...),
	}
	d.pol.mt = thresholdMetrics{
		downscales: reg.NewCounter("thermctl_tdvfs_downscales_total",
			"threshold-trip frequency scale-downs", labels...),
		upscales: reg.NewCounter("thermctl_tdvfs_upscales_total",
			"restores to the nominal frequency", labels...),
		engaged: reg.NewGauge("thermctl_tdvfs_engaged",
			"1 while the CPU is held below its nominal frequency", labels...),
	}
}

// InstrumentMetrics instruments both coupled controllers plus the
// coordination itself. Wiring-time only.
func (h *Hybrid) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	h.Fan.InstrumentMetrics(reg, labels...)
	h.DVFS.InstrumentMetrics(reg, labels...)
	h.holdRounds = reg.NewCounter("thermctl_hybrid_hold_rounds_total",
		"control rounds with the fan floor held while tDVFS was engaged", labels...)
}
