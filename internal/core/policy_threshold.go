package core

import (
	"time"

	"thermctl/internal/core/ctlarray"
	"thermctl/internal/metrics"
)

// ThresholdPolicy is the tDVFS decision law of §4.3 as an engine
// policy: threshold-gated, trend-aware stepping through a Pp-filled
// control array over a single actuator. Unlike the continuous ctlarray
// policy it touches its knob only when heat demonstrably exceeds what
// the other techniques remove, minimizing the in-band technique's
// performance cost. It is the policy behind the TDVFS facade.
type ThresholdPolicy struct {
	thresholdC       float64
	hysteresisC      float64
	trendEpsilonC    float64
	emergencyMarginC float64
	cooldownRounds   int

	arr      *ctlarray.Array
	curMode  int // physical mode currently applied (0 = nominal)
	cooldown int
	downs    uint64
	ups      uint64

	// trigger bookkeeping for the experiments: when the first
	// scale-down happened.
	firstDownAt time.Duration
	triggered   bool

	mt thresholdMetrics
}

// thresholdMetrics bundles the policy-specific instrument handles (the
// engine-generic ones live on the binding).
type thresholdMetrics struct {
	// downscales counts threshold-trip scale-down decisions.
	downscales *metrics.Counter
	// upscales counts restore-to-nominal decisions.
	upscales *metrics.Counter
	// engaged is 1 while the policy holds its knob below nominal.
	engaged *metrics.Gauge
}

// NewThresholdPolicy builds the policy over an actuator's mode count.
// Range validation on cfg is the caller's job (NewTDVFS performs it).
func NewThresholdPolicy(cfg TDVFSConfig, numModes int) (*ThresholdPolicy, error) {
	arr, err := ctlarray.New(cfg.N, numModes, cfg.Pp)
	if err != nil {
		return nil, err
	}
	return &ThresholdPolicy{
		thresholdC:       cfg.ThresholdC,
		hysteresisC:      cfg.HysteresisC,
		trendEpsilonC:    cfg.TrendEpsilonC,
		emergencyMarginC: cfg.EmergencyMarginC,
		cooldownRounds:   cfg.CooldownRounds,
		arr:              arr,
	}, nil
}

// CurrentMode returns the physical mode currently applied (0 is
// nominal).
//
//thermlint:allow deadcode -- oracle: the tDVFS, hybrid and cluster goldens record the applied mode
func (p *ThresholdPolicy) CurrentMode() int { return p.curMode }

// Engaged reports whether the policy is holding its knob below the
// nominal mode.
func (p *ThresholdPolicy) Engaged() bool { return p.curMode > 0 }

// Downscales returns the number of scale-down decisions taken.
func (p *ThresholdPolicy) Downscales() uint64 { return p.downs }

// Upscales returns the number of restore decisions taken.
func (p *ThresholdPolicy) Upscales() uint64 { return p.ups }

// TriggeredAt returns when the first scale-down happened and whether
// one happened at all.
func (p *ThresholdPolicy) TriggeredAt() (time.Duration, bool) { return p.firstDownAt, p.triggered }

// Decide implements Policy: scale down while the average temperature is
// consistently above the threshold and still rising (or consistently
// inside the emergency band), restore to nominal once consistently
// below threshold − hysteresis, with a decision cooldown in between so
// the thermal response can develop before judging again.
func (p *ThresholdPolicy) Decide(tx *Txn) {
	if p.cooldown > 0 {
		p.cooldown--
		return
	}
	win := tx.Window()
	rising := win.DeltaL2() > p.trendEpsilonC
	emergency := win.AllL2Above(p.thresholdC + p.emergencyMarginC)
	switch {
	case (win.AllL2Above(p.thresholdC) && rising) || emergency:
		// Consistently above threshold: move to the least-effective
		// array mode that still exceeds the current one. How far that
		// jumps is exactly what Pp encodes: at Pp=50 the array holds
		// every P-state, so this is one step (2.4→2.2 GHz); at Pp=25
		// the array skips states, jumping 2.4→2.0 GHz (the paper's
		// Figure 10 markers).
		next := -1
		for i := 0; i < p.arr.Len(); i++ {
			if m := p.arr.Mode(i); m > p.curMode {
				next = m
				break
			}
		}
		if next < 0 {
			return // already at the most effective mode
		}
		if !tx.Apply(0, next) {
			return
		}
		p.curMode = next
		p.downs++
		p.mt.downscales.Inc()
		p.mt.engaged.SetBool(true)
		if !p.triggered {
			p.triggered = true
			p.firstDownAt = tx.Now()
		}
		p.cooldown = p.cooldownRounds

	case p.curMode > 0 && win.AllL2Below(p.thresholdC-p.hysteresisC):
		// Consistently below threshold: restore the nominal mode
		// directly, as the paper's Figures 8 and 10 show (2.2→2.4 and
		// 2.0→2.4 in one step).
		if !tx.Apply(0, 0) {
			return
		}
		p.curMode = 0
		p.ups++
		p.mt.upscales.Inc()
		p.mt.engaged.SetBool(false)
		p.cooldown = p.cooldownRounds
	}
}

// OnFailSafeApplied implements FailSafeApplyPolicy: a landed fail-safe
// actuation is the mode floor, so recording it keeps Engaged() true and
// the hybrid fan floor held throughout the escalation.
func (p *ThresholdPolicy) OnFailSafeApplied(_, mode int) {
	p.curMode = mode
	p.mt.engaged.SetBool(mode > 0)
}

// OnRelease implements ReleasePolicy: the mode stays at the floor; the
// normal restore path brings it back to nominal once the re-armed
// cooldown elapses.
func (p *ThresholdPolicy) OnRelease() {
	p.cooldown = p.cooldownRounds
}
