// Package window implements the paper's two-level, history-based
// temperature window (§3.2.1) and the thermal behaviour classifier built
// on it (§3.1).
//
// Level one is a small array (4 entries at a 4 Hz sample rate in the
// paper) that fills with raw samples. When it fills — one "round" — the
// controller computes Δt_L1, the difference between the sums of the
// second and first halves of the array. A large Δt_L1 flags a *sudden*
// sustained change; symmetric oscillation (*jitter*) cancels out of the
// half-sums. The round's average is then pushed into level two, a
// fixed-size FIFO (5 entries in the paper), and the array is cleared.
// Δt_L2, the difference between the FIFO's rear (newest) and front
// (oldest) averages, tracks *gradual* drift across a longer horizon.
package window

import (
	"fmt"
	"math"
)

// Config sizes the two levels.
type Config struct {
	// L1Size is the level-one array length. The paper found 4 entries
	// large enough to capture sudden changes while nullifying jitter.
	L1Size int
	// L2Size is the level-two FIFO depth (5 in the paper).
	L2Size int
}

// Default returns the paper's window sizes.
func Default() Config { return Config{L1Size: 4, L2Size: 5} }

// Window is the two-level temperature history. Not safe for concurrent
// use; the controller samples from a single loop.
type Window struct {
	cfg Config

	l1  []float64
	l1n int

	l2 []float64 // FIFO of round averages; index 0 = front (oldest)

	rounds      int
	deltaL1     float64
	prevDeltaL1 float64
	lastRange   float64 // max-min of the last completed round, for jitter detection
}

// New returns an empty window. It panics if the sizes are invalid
// (L1Size must be an even number ≥ 2 so the half-sums are balanced;
// L2Size must be ≥ 2 so Δt_L2 is meaningful).
func New(cfg Config) *Window {
	if cfg.L1Size < 2 || cfg.L1Size%2 != 0 {
		panic(fmt.Sprintf("window: L1Size %d must be even and >= 2", cfg.L1Size))
	}
	if cfg.L2Size < 2 {
		panic(fmt.Sprintf("window: L2Size %d must be >= 2", cfg.L2Size))
	}
	return &Window{
		cfg: cfg,
		l1:  make([]float64, cfg.L1Size),
		l2:  make([]float64, 0, cfg.L2Size),
	}
}

// Add feeds one temperature sample. It returns true when the sample
// completed a level-one round (so Δt_L1, Δt_L2 and Avg were just
// refreshed and a control decision is due).
func (w *Window) Add(sample float64) bool {
	w.l1[w.l1n] = sample
	w.l1n++
	if w.l1n < w.cfg.L1Size {
		return false
	}

	half := w.cfg.L1Size / 2
	var first, second, sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range w.l1 {
		sum += v
		if i < half {
			first += v
		} else {
			second += v
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	w.prevDeltaL1 = w.deltaL1
	w.deltaL1 = second - first
	w.lastRange = hi - lo
	avg := sum / float64(w.cfg.L1Size)

	if len(w.l2) == w.cfg.L2Size {
		copy(w.l2, w.l2[1:]) // dequeue front
		w.l2 = w.l2[:w.cfg.L2Size-1]
	}
	//thermlint:allow hotalloc -- l2 is preallocated to L2Size at construction and dequeues at capacity; this append never grows it
	w.l2 = append(w.l2, avg)

	w.l1n = 0 // clear level one for the next round
	w.rounds++
	return true
}

// DeltaL1 returns Δt_L1 from the last completed round: the second-half
// sum minus the first-half sum of the level-one array. Zero before the
// first round.
func (w *Window) DeltaL1() float64 { return w.deltaL1 }

// DeltaL2 returns Δt_L2: the rear (newest) minus the front (oldest)
// level-two average. Zero until at least two rounds have completed.
func (w *Window) DeltaL2() float64 {
	if len(w.l2) < 2 {
		return 0
	}
	return w.l2[len(w.l2)-1] - w.l2[0]
}

// L2Full reports whether the level-two FIFO holds L2Size averages, i.e.
// Δt_L2 spans the full long horizon.
func (w *Window) L2Full() bool { return len(w.l2) == w.cfg.L2Size }

// Avg returns the newest level-two entry: the average of the last
// completed round. NaN before the first round.
func (w *Window) Avg() float64 {
	if len(w.l2) == 0 {
		return math.NaN()
	}
	return w.l2[len(w.l2)-1]
}

// AllL2Above reports whether the FIFO is full and every entry exceeds
// t — the paper's "average temperature is consistently above threshold"
// condition that arms tDVFS.
func (w *Window) AllL2Above(t float64) bool {
	if !w.L2Full() {
		return false
	}
	for _, v := range w.l2 {
		if v <= t {
			return false
		}
	}
	return true
}

// AllL2Below reports whether the FIFO is full and every entry is under
// t — the "consistently below" condition that lets tDVFS restore the
// nominal frequency.
func (w *Window) AllL2Below(t float64) bool {
	if !w.L2Full() {
		return false
	}
	for _, v := range w.l2 {
		if v >= t {
			return false
		}
	}
	return true
}

// Behavior is a thermal behaviour type from the paper's §3.1 taxonomy.
type Behavior int

// The four behaviours. Steady is the implicit fourth case: no sustained
// or oscillatory activity.
const (
	Steady  Behavior = iota
	Sudden           // Type I: drastic sustained change within one round
	Gradual          // Type II: steady drift across the level-two horizon
	Jitter           // Type III: oscillation with no sustained trend
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case Sudden:
		return "sudden"
	case Gradual:
		return "gradual"
	case Jitter:
		return "jitter"
	default:
		return "steady"
	}
}

// ClassifyConfig holds the classification thresholds, in the same units
// as the samples (°C for temperature).
type ClassifyConfig struct {
	// SuddenDelta is the |Δt_L1| at or above which a round is Sudden.
	SuddenDelta float64
	// GradualDelta is the |Δt_L2| at or above which the long horizon is
	// Gradual.
	GradualDelta float64
	// JitterRange is the intra-round (max-min) spread at or above which
	// a trendless round is Jitter rather than Steady.
	JitterRange float64
}

// DefaultClassify returns thresholds tuned for the repository's sensor
// model (0.25 °C quantum, 0.15 °C noise): 0.6 °C of half-sum difference
// within one second (≈1.8σ of the noise floor) flags sudden change, and
// half a degree of drift across the five-second horizon flags gradual.
func DefaultClassify() ClassifyConfig {
	return ClassifyConfig{SuddenDelta: 0.6, GradualDelta: 0.5, JitterRange: 0.9}
}

// Classify labels the last completed round.
//
// A large |Δt_L1| alone cannot separate Type I from Type III: the first
// spike of an oscillation looks exactly like a sudden onset. The paper
// distinguishes them by the *lack of sustained change following the
// spike*, so the classifier also consults the previous round: a large
// Δt_L1 whose sign flipped against an equally large previous delta is
// jitter, not a new sudden event.
func (w *Window) Classify(cfg ClassifyConfig) Behavior {
	if math.Abs(w.deltaL1) >= cfg.SuddenDelta {
		if w.deltaL1*w.prevDeltaL1 < 0 && math.Abs(w.prevDeltaL1) >= cfg.SuddenDelta/2 {
			return Jitter
		}
		return Sudden
	}
	if w.L2Full() && math.Abs(w.DeltaL2()) >= cfg.GradualDelta {
		return Gradual
	}
	if w.lastRange >= cfg.JitterRange {
		return Jitter
	}
	return Steady
}
