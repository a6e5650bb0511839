package core

import (
	"fmt"
	"time"

	"thermctl/internal/core/window"
)

// TDVFSConfig parameterizes the temperature-aware DVFS daemon of §4.3.
type TDVFSConfig struct {
	// Pp is the policy parameter; it shapes the DVFS control array and
	// therefore how far one scale-down jumps (Pp=50 steps 2.4→2.2 GHz;
	// Pp=25 jumps 2.4→2.0 GHz, as in the paper's Figure 10).
	Pp int
	// ThresholdC is the trigger temperature (paper: 51 °C). The daemon
	// scales down only while the average temperature is consistently
	// above it, and restores the nominal frequency once consistently
	// below.
	ThresholdC float64
	// HysteresisC widens the restore condition: scale back up only when
	// consistently below ThresholdC - HysteresisC. It must exceed the
	// temperature drop produced by one scale-down step, or the daemon
	// limit-cycles on a sustained hot workload (down, cool slightly,
	// restore, reheat, down, ...) — exactly the transition churn tDVFS
	// exists to avoid. On this platform one P-state step is worth
	// ≈2.5 °C, so the default is 3 °C.
	HysteresisC float64
	// SamplePeriod is the temperature sampling interval (250 ms).
	SamplePeriod time.Duration
}

// The daemon's fixed parameters. Its fail-safe escalation target is
// its frequency floor (the slowest P-state).
const (
	// tdvfsL1Size and tdvfsL2Size size the history. "Consistently"
	// means every entry of the full level-two FIFO is on one side of
	// the threshold, i.e. tdvfsL2Size consecutive seconds. tDVFS uses a
	// deeper FIFO than the fan controller (10 rounds vs 5): an in-band
	// action is expensive, so the evidence bar is higher — sensor noise
	// hovering at the threshold must not trigger a frequency change.
	tdvfsL1Size = 4
	tdvfsL2Size = 10
	// tdvfsN is the control-array bound over the 5 P-states.
	tdvfsN = 10
	// tdvfsCooldownRounds is the minimum number of window rounds
	// between two frequency changes (2×tdvfsL2Size), letting the
	// thermal response develop before judging again.
	tdvfsCooldownRounds = 2 * tdvfsL2Size
	// trendEpsilonC makes the scale-down decision context-aware: a
	// down-step is taken only when the level-two trend Δt_L2 exceeds
	// +trendEpsilonC, i.e. the temperature is above threshold *and
	// still rising*. This is the reading of the paper's "only when
	// average temperature is stabilized above the threshold" that its
	// Figure 9 demonstrates: tDVFS stops at 2.0 GHz with the die steady
	// near 55 °C — above the threshold — and makes no further changes.
	// The goal is stopping the rise (preventing the emergency), not
	// forcing the die under the trigger value at any performance cost.
	// 0.35 °C is above the sensor-noise floor of the round averages and
	// above the asymptotic tail of an equilibrium approach, so the
	// daemon stops once the rise has effectively flattened.
	trendEpsilonC = 0.35
	// emergencyMarginC is the backstop: if the average is consistently
	// above ThresholdC+emergencyMarginC, scale down regardless of trend
	// — a creeping rise too slow for trend detection must not reach the
	// hardware's thermal-throttle point.
	emergencyMarginC = 8
)

// DefaultTDVFSConfig returns the paper's tDVFS parameters.
func DefaultTDVFSConfig(pp int) TDVFSConfig {
	return TDVFSConfig{
		Pp:           pp,
		ThresholdC:   51,
		HysteresisC:  3.0,
		SamplePeriod: 250 * time.Millisecond,
	}
}

// TDVFS is the temperature-aware DVFS daemon. Unlike the continuous fan
// controller, it is threshold-gated: frequency is not touched at all
// until heat demonstrably exceeds what the fan can remove, minimizing
// the in-band technique's performance cost. Since the control-plane
// unification it is a facade over the engine — a Binding hosting the
// ThresholdPolicy — kept for its constructor and observability
// surface, and stepped through its Binding.
type TDVFS struct {
	b   *Binding
	pol *ThresholdPolicy
}

// NewTDVFS builds the daemon over a DVFS actuator.
func NewTDVFS(cfg TDVFSConfig, read TempReader, act *DVFSActuator) (*TDVFS, error) {
	if read == nil || act == nil {
		return nil, fmt.Errorf("core: tdvfs needs a reader and an actuator")
	}
	if cfg.SamplePeriod <= 0 {
		return nil, fmt.Errorf("core: tdvfs: non-positive sample period")
	}
	pol, err := NewThresholdPolicy(cfg, act.NumModes())
	if err != nil {
		return nil, err
	}
	b, err := NewBinding(BindingConfig{
		Policy:       pol,
		Read:         read,
		SamplePeriod: cfg.SamplePeriod,
		Window:       &window.Config{L1Size: tdvfsL1Size, L2Size: tdvfsL2Size},
		Actuators:    []Actuator{act},
	})
	if err != nil {
		return nil, err
	}
	return &TDVFS{b: b, pol: pol}, nil
}

// Binding exposes the engine binding hosting this daemon, for
// composition into an Engine or for stepping it alone.
func (d *TDVFS) Binding() *Binding { return d.b }

// Policy exposes the hosted threshold policy.
func (d *TDVFS) Policy() *ThresholdPolicy { return d.pol }

// Downscales returns the number of scale-down decisions taken.
func (d *TDVFS) Downscales() uint64 { return d.pol.Downscales() }

// Upscales returns the number of restore decisions taken.
func (d *TDVFS) Upscales() uint64 { return d.pol.Upscales() }

// TriggeredAt returns when the first scale-down happened and whether
// one happened at all — the coordination observable of Figure 10.
func (d *TDVFS) TriggeredAt() (time.Duration, bool) { return d.pol.TriggeredAt() }

// Engaged reports whether the daemon is holding the CPU below its
// nominal frequency.
func (d *TDVFS) Engaged() bool { return d.pol.Engaged() }
