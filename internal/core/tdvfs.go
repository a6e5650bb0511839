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
	// Window sizes the history. "Consistently" means every entry of
	// the full level-two FIFO is on one side of the threshold, i.e.
	// L2Size consecutive seconds. tDVFS uses a deeper FIFO than the
	// fan controller (10 rounds vs 5): an in-band action is expensive,
	// so the evidence bar is higher — sensor noise hovering at the
	// threshold must not trigger a frequency change.
	Window window.Config
	// N is the control-array bound (default 10 over the 5 P-states).
	N int
	// CooldownRounds is the minimum number of window rounds between
	// two frequency changes, letting the thermal response develop
	// before judging again (default: 2×L2Size).
	CooldownRounds int
	// TrendEpsilonC makes the scale-down decision context-aware: a
	// down-step is taken only when the level-two trend Δt_L2 exceeds
	// +TrendEpsilonC, i.e. the temperature is above threshold *and
	// still rising*. This is the reading of the paper's "only when
	// average temperature is stabilized above the threshold" that its
	// Figure 9 demonstrates: tDVFS stops at 2.0 GHz with the die steady
	// near 55 °C — above the threshold — and makes no further changes.
	// The goal is stopping the rise (preventing the emergency), not
	// forcing the die under the trigger value at any performance cost.
	// Default 0.35 °C — above the sensor-noise floor of the round
	// averages and above the asymptotic tail of an equilibrium
	// approach, so the daemon stops once the rise has effectively
	// flattened.
	TrendEpsilonC float64
	// EmergencyMarginC is the backstop: if the average is consistently
	// above ThresholdC+EmergencyMarginC, scale down regardless of
	// trend — a creeping rise too slow for trend detection must not
	// reach the hardware's thermal-throttle point. Default 8 °C.
	EmergencyMarginC float64
	// FailSafe parameterizes the consecutive-error escalation policy;
	// zero fields take the defaults (see FailSafeConfig). The daemon's
	// escalation target is its frequency floor (the slowest P-state).
	FailSafe FailSafeConfig
}

// DefaultTDVFSConfig returns the paper's tDVFS parameters.
func DefaultTDVFSConfig(pp int) TDVFSConfig {
	return TDVFSConfig{
		Pp:               pp,
		ThresholdC:       51,
		HysteresisC:      3.0,
		SamplePeriod:     250 * time.Millisecond,
		Window:           window.Config{L1Size: 4, L2Size: 10},
		N:                10,
		TrendEpsilonC:    0.35,
		EmergencyMarginC: 8,
		FailSafe:         DefaultFailSafeConfig(),
	}
}

// withDefaults fills zero fields, mirroring the historical NewTDVFS
// normalization.
func (cfg TDVFSConfig) withDefaults() TDVFSConfig {
	if cfg.Window.L1Size == 0 {
		cfg.Window = window.Default()
	}
	if cfg.N == 0 {
		cfg.N = 10
	}
	if cfg.CooldownRounds == 0 {
		cfg.CooldownRounds = 2 * cfg.Window.L2Size
	}
	if cfg.TrendEpsilonC == 0 {
		cfg.TrendEpsilonC = 0.35
	}
	if cfg.EmergencyMarginC == 0 {
		cfg.EmergencyMarginC = 8
	}
	cfg.FailSafe = cfg.FailSafe.withDefaults()
	return cfg
}

// TDVFS is the temperature-aware DVFS daemon. Unlike the continuous fan
// controller, it is threshold-gated: frequency is not touched at all
// until heat demonstrably exceeds what the fan can remove, minimizing
// the in-band technique's performance cost. Since the control-plane
// unification it is a facade over the engine — a Binding hosting the
// ThresholdPolicy — kept for its stable constructor and observability
// surface.
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
	cfg = cfg.withDefaults()
	pol, err := NewThresholdPolicy(cfg, act.NumModes())
	if err != nil {
		return nil, err
	}
	win := cfg.Window
	b, err := NewBinding(BindingConfig{
		Policy:       pol,
		Read:         read,
		SamplePeriod: cfg.SamplePeriod,
		Window:       &win,
		FailSafe:     cfg.FailSafe,
		Actuators:    []Actuator{act},
	})
	if err != nil {
		return nil, err
	}
	return &TDVFS{b: b, pol: pol}, nil
}

// Binding exposes the engine binding hosting this daemon, for
// composition into an Engine (the hybrid coordinator does this).
func (d *TDVFS) Binding() *Binding { return d.b }

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

// NextDue forwards the binding's; implements cluster.Scheduled.
func (d *TDVFS) NextDue() time.Duration { return d.b.NextDue() }

// OnStep samples and decides through the hosted threshold policy.
// Implements the cluster Controller interface. Sampling cadence,
// fail-safe degradation and error accounting are the engine's (see
// Binding.OnStep).
func (d *TDVFS) OnStep(now time.Duration) { d.b.OnStep(now) }
