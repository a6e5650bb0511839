package core

import (
	"math"

	"thermctl/internal/core/ctlarray"
	"thermctl/internal/metrics"
)

// CtlArrayPolicy is the paper's §3.2 decision law as an engine policy:
// per actuator, a thermal control array filled from the policy
// parameter Pp, an index updated by the two-level window's predicted
// variation (Δt_L1, falling back to Δt_L2), and an anti-windup lead
// band around the absolute-temperature anchor. It is the policy behind
// the dynamic fan controller facade — and, because the array maps any
// ordered mode set, the same policy drives DVFS, ACPI throttling and
// processor sleep states (cstates.Actuator) unchanged.
type CtlArrayPolicy struct {
	tminC  float64
	l2Size int

	slots     []*ctlSlot
	anchor    bool
	holdFloor bool

	mt ctlArrayMetrics
}

// ctlArrayMetrics bundles the policy-specific instrument handles (the
// engine-generic ones live on the binding).
type ctlArrayMetrics struct {
	// l2Fallbacks counts rounds where the short-horizon Δt_L1 predictor
	// produced no index move and the long-horizon Δt_L2 predictor was
	// consulted instead.
	l2Fallbacks *metrics.Counter
	// holdFloor is 1 while downward index moves are suppressed by
	// HoldFloorHook.
	holdFloor *metrics.Gauge
}

// ctlSlot is one actuator's array state: the Pp-filled control array,
// the index-update coefficient c = (N-1)/(Tmax-Tmin), and the current
// index.
type ctlSlot struct {
	arr  *ctlarray.Array
	coef float64
	idx  int
	// l2Cooldown throttles level-two (gradual) corrections so a
	// sustained drift is not integrated once per round across the whole
	// FIFO span.
	l2Cooldown int
}

// NewCtlArrayPolicy builds the policy over the given actuators.
// Range validation on cfg is the caller's job (NewController performs
// it); this constructor only rejects array-fill failures.
func NewCtlArrayPolicy(cfg Config, acts ...Actuator) (*CtlArrayPolicy, error) {
	p := &CtlArrayPolicy{
		tminC:  cfg.TminC,
		l2Size: cfg.Window.L2Size,
	}
	for _, a := range acts {
		m := a.NumModes()
		n := m
		if n < 10 {
			n = 2 * m
		}
		arr, err := ctlarray.New(n, m, cfg.Pp)
		if err != nil {
			return nil, err
		}
		p.slots = append(p.slots, &ctlSlot{
			arr:  arr,
			coef: float64(n-1) / (cfg.TmaxC - cfg.TminC),
		})
	}
	return p, nil
}

// Index returns the current control-array index of actuator i.
func (p *CtlArrayPolicy) Index(i int) int { return p.slots[i].idx }

// Mode returns the physical mode actuator i's index selects.
func (p *CtlArrayPolicy) Mode(i int) int { return p.slots[i].arr.Mode(p.slots[i].idx) }

// HoldFloor reports whether downward index moves are suppressed.
func (p *CtlArrayPolicy) HoldFloor() bool { return p.holdFloor }

// SetHoldFloor, while set, blocks index *decreases* (cooling
// reductions); increases stay allowed. HoldFloorHook uses it to stop
// the out-of-band knob from relaxing while the in-band knob is
// engaged.
func (p *CtlArrayPolicy) SetHoldFloor(hold bool) {
	p.holdFloor = hold
	p.mt.holdFloor.SetBool(hold)
}

// Decide implements Policy. The first completed round anchors each
// actuator's index to the absolute temperature, so a controller started
// on an already hot machine begins from a proportionate mode; after
// that each round runs the per-actuator index update.
func (p *CtlArrayPolicy) Decide(tx *Txn) {
	if !p.anchor {
		p.anchor = true
		avg := tx.Window().Avg()
		for i, s := range p.slots {
			s.idx = s.arr.Clamp(int(math.Round(s.coef * (avg - p.tminC))))
			tx.Apply(i, s.arr.Mode(s.idx))
		}
		return
	}
	for i := range p.slots {
		p.decideSlot(tx, i)
	}
}

// decideSlot performs the paper's index update for one actuator: try
// i + c·Δt_L1; if that does not change the index, try i + c·Δt_L2
// (throttled to once per FIFO span so sustained drift is not multiply
// counted). The result is then held inside the anti-windup lead band
// around the absolute anchor c·(T−Tmin).
func (p *CtlArrayPolicy) decideSlot(tx *Txn, i int) {
	s := p.slots[i]
	win := tx.Window()
	if s.l2Cooldown > 0 {
		s.l2Cooldown--
	}
	di := int(math.Round(s.coef * win.DeltaL1()))
	usedL2 := false
	if di == 0 && s.l2Cooldown == 0 && win.L2Full() {
		p.mt.l2Fallbacks.Inc()
		di = int(math.Round(s.coef * win.DeltaL2()))
		usedL2 = di != 0
	}
	if di < 0 && p.holdFloor {
		di = 0
	}
	target := s.idx + di

	// Anti-windup: the index may lead the static anchor by at most
	// maxLeadC degrees (proactivity) and must not lag it by more
	// (reactivity floor). Downward corrections are suppressed while
	// the hybrid holds the fan floor.
	center := s.coef * (win.Avg() - p.tminC)
	lead := s.coef * maxLeadC
	if hi := int(math.Floor(center + lead)); target > hi && !(p.holdFloor && hi < s.idx) {
		target = hi
	}
	if lo := int(math.Ceil(center - lead)); target < lo {
		target = lo
	}

	target = s.arr.Clamp(target)
	if target == s.idx {
		return
	}
	s.idx = target
	if usedL2 {
		s.l2Cooldown = p.l2Size
	}
	tx.Apply(i, s.arr.Mode(s.idx))
}

// OnEscalate implements EscalatePolicy: every index is pinned to the
// array's end, whose cell the Pp fill guarantees to be the most
// effective mode.
func (p *CtlArrayPolicy) OnEscalate() {
	for _, s := range p.slots {
		s.idx = s.arr.Len() - 1
	}
}
