// Load-shape generators beyond the paper's Figure 2 primitives: seeded
// random utilization, stepped-load programs, diurnal cycles and
// flash-crowd spikes — the shapes production fleets actually see. All
// of them are *pure functions of simulated time*: a generator never
// carries mutable state, so one instance may be shared across nodes
// (though the declarative workload plane builds one per node anyway,
// each with its own seed, and wraps Random in a per-node memo of its
// held value — see Spec.Build and held) and evaluation inside the
// cluster's sharded step phase is byte-identical for every worker
// count. They are also allocation-free: Utilization runs inside
// node.Step, a thermlint hotalloc root.
package workload

import (
	"math"
	"time"

	"thermctl/internal/rng"
)

// RandomDist selects the distribution of a Random generator.
type RandomDist int

const (
	// DistUniform draws uniformly from [Lo, Hi].
	DistUniform RandomDist = iota
	// DistExponential draws Exp(mean) — bursty open-system load with
	// frequent lulls and occasional surges — clamped to [Lo, Hi].
	DistExponential
	// DistHeavyTail draws Pareto(Lo, Alpha) — most samples near the Lo
	// floor with rare large excursions, the classic long-tailed demand
	// of shared infrastructure — clamped to [Lo, Hi].
	DistHeavyTail
)

// Random is seeded random utilization, the tsload `param -rg lcg -rv
// uniform` idiom: demand is redrawn once per Hold interval from the
// configured distribution. The value of slot k is a pure function of
// (Seed, k) — the slot index keys a throwaway SplitMix64 stream via
// rng.Mix — so there is no internal state to share or to make
// evaluation order matter: any node, any worker, any call pattern sees
// the same utilization at the same simulated time.
type Random struct {
	// Seed keys this generator's value stream; give every node its own
	// (Spec.Build derives one per node with rng.Mix).
	Seed uint64
	// Hold is how long each drawn value applies. Hold <= 0 degenerates
	// to a single draw held forever (slot 0).
	Hold time.Duration
	// Dist selects the distribution.
	Dist RandomDist
	// Lo and Hi bound the drawn utilization. For DistUniform they are
	// the range; for DistExponential and DistHeavyTail they clamp, and
	// Lo is additionally the Pareto scale (the tail's floor).
	Lo, Hi float64
	// Mean is the exponential distribution's mean (DistExponential).
	Mean float64
	// Alpha is the Pareto shape (DistHeavyTail); smaller is heavier.
	Alpha float64
}

// Utilization implements Generator.
func (r Random) Utilization(t time.Duration) float64 {
	var slot uint64
	if r.Hold > 0 && t > 0 {
		slot = uint64(t / r.Hold)
	}
	src := rng.At(rng.Mix(r.Seed, slot))
	u := src.Float64()
	lo, hi := r.Lo, r.Hi
	if hi <= lo {
		hi = 1
	}
	var v float64
	switch r.Dist {
	case DistExponential:
		mean := r.Mean
		if mean <= 0 {
			mean = 0.3
		}
		// Inverse CDF; 1-u is in (0, 1] so the log argument never hits 0.
		v = -mean * math.Log(1-u)
	case DistHeavyTail:
		alpha := r.Alpha
		if alpha <= 0 {
			alpha = 1.5
		}
		scale := lo
		if scale <= 0 {
			scale = 0.05
		}
		v = scale / math.Pow(1-u, 1/alpha)
	default: // DistUniform
		v = lo + u*(hi-lo)
	}
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return clamp01(v)
}

// held is one node's Random with its current slot's value cached: a
// node asks for demand every step, and the value changes once per
// Hold. [from, until) is the cached slot's interval, computed as
// Random computes the slot: t <= 0 falls in slot 0, so slot 0 starts
// at -∞, and with Hold <= 0 the one slot never ends. A time outside
// the interval, earlier ones included, redraws through Random, so
// every call returns exactly Random's value. The zero interval is
// empty: the first call draws. Unlike Random, a held generator is
// stateful and belongs to one node (Spec.Build makes one per node).
type held struct {
	from, until time.Duration
	v           float64
	r           Random
}

// Utilization implements Generator.
func (h *held) Utilization(t time.Duration) float64 {
	if h.from <= t && t < h.until {
		return h.v
	}
	h.v = h.r.Utilization(t)
	h.from, h.until = math.MinInt64, math.MaxInt64
	if hold := h.r.Hold; hold > 0 {
		var start time.Duration
		if t > 0 {
			start = t / hold * hold
		}
		if start > 0 {
			h.from = start
		}
		if start <= math.MaxInt64-hold {
			h.until = start + hold
		}
	}
	return h.v
}

// Steps replays the tsload stepped-load idiom (`steps 10 12 14 16 …`):
// Levels[i] applies for one Hold interval each, in order. After the
// last level the program either loops from the start or holds the
// final level.
type Steps struct {
	// Levels are utilization values in [0, 1].
	Levels []float64
	// Hold is the duration of each step. Hold <= 0 pins the first level.
	Hold time.Duration
	// Loop restarts the program after the last level.
	Loop bool
}

// Utilization implements Generator.
func (s Steps) Utilization(t time.Duration) float64 {
	if len(s.Levels) == 0 {
		return 0
	}
	if s.Hold <= 0 || t < 0 {
		return clamp01(s.Levels[0])
	}
	i := int(t / s.Hold)
	if i >= len(s.Levels) {
		if !s.Loop {
			return clamp01(s.Levels[len(s.Levels)-1])
		}
		i %= len(s.Levels)
	}
	return clamp01(s.Levels[i])
}

// Diurnal is a day/night demand cycle: utilization oscillates
// sinusoidally around Base with the given Amplitude and Period. t = 0
// sits at the trough (plus Phase), so a campaign started "at night"
// warms into the daily peak half a period in — compress Period well
// below 24 h to fit a cycle into a simulated campaign.
type Diurnal struct {
	// Base is the mean utilization.
	Base float64
	// Amplitude is the swing around Base (peak = Base + Amplitude).
	Amplitude float64
	// Period is the cycle length. Period <= 0 pins Base - Amplitude
	// (the trough, the t=0 value of any positive period).
	Period time.Duration
	// Phase shifts the cycle start.
	Phase time.Duration
}

// Utilization implements Generator.
func (d Diurnal) Utilization(t time.Duration) float64 {
	if d.Period <= 0 {
		return clamp01(d.Base - d.Amplitude)
	}
	frac := float64((t+d.Phase)%d.Period) / float64(d.Period)
	return clamp01(d.Base - d.Amplitude*math.Cos(2*math.Pi*frac))
}

// FlashCrowd is a sudden demand spike on a quiet baseline: utilization
// sits at Base, ramps linearly to Peak over Rise starting at At, then
// decays exponentially back toward Base with time constant Decay — the
// news-event / retry-storm shape whose onset is the paper's "sudden"
// type and whose tail is its "gradual" type in one program.
type FlashCrowd struct {
	// Base is the pre- and post-spike utilization.
	Base float64
	// Peak is the crest of the spike.
	Peak float64
	// At is when the crowd arrives.
	At time.Duration
	// Rise is the onset ramp; Rise <= 0 makes the onset a step.
	Rise time.Duration
	// Decay is the exponential tail's time constant; Decay <= 0 drops
	// straight back to Base after the crest.
	Decay time.Duration
}

// Utilization implements Generator.
func (f FlashCrowd) Utilization(t time.Duration) float64 {
	if t < f.At {
		return clamp01(f.Base)
	}
	if f.Rise > 0 && t < f.At+f.Rise {
		frac := float64(t-f.At) / float64(f.Rise)
		return clamp01(f.Base + frac*(f.Peak-f.Base))
	}
	since := t - f.At
	if f.Rise > 0 {
		since -= f.Rise
	}
	if f.Decay <= 0 {
		// No tail: the crest instant itself still reads Peak so a
		// zero-Rise zero-Decay spike is at least visible at t == At.
		if since == 0 {
			return clamp01(f.Peak)
		}
		return clamp01(f.Base)
	}
	return clamp01(f.Base + (f.Peak-f.Base)*math.Exp(-float64(since)/float64(f.Decay)))
}
