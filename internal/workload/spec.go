// The declarative workload plane: Spec is the JSON description of an
// open-loop workload, and Spec.Build instantiates a Generator for one
// node from a family seed. A scenario (internal/config) carries one
// Spec per fleet — or one per node group — and the factory derives an
// independent per-node instance with rng.Mix(seed, node), so stateful
// generators (CPUBurn's noise stream, per-node random demand) never
// share state across nodes. Sharing was the bug in the pre-plane
// wiring: one CPUBurn attached to every node meant one rng stream
// advanced concurrently by the sharded step phase.
//
// The vocabulary follows the tsload/salsa-rex scenario idiom
// (SNIPPETS.md): `param -rg lcg -rv uniform` is Kind "random",
// `steps 10 12 14 …` is Kind "steps", and scenario inheritance
// (`create -c base derived`) lives one layer up, in the config
// package's "extends" composition.
package workload

import (
	"fmt"
	"math"
	"time"

	"thermctl/internal/rng"
)

// Spec kinds, in gallery order.
const (
	KindConstant   = "constant"   // fixed utilization
	KindCPUBurn    = "cpuburn"    // the paper's cpu-burn stressor (per-node noise stream)
	KindStep       = "step"       // Figure 2 "sudden": Before → After at At
	KindRamp       = "ramp"       // Figure 2 "gradual": From → To over Over
	KindJitter     = "jitter"     // Figure 2 "jitter": Low/High square wave
	KindTrace      = "trace"      // recorded samples, interpolated
	KindRandom     = "random"     // seeded random demand (uniform/exponential/heavytail)
	KindSteps      = "steps"      // tsload stepped-load program
	KindDiurnal    = "diurnal"    // day/night sinusoid
	KindFlashCrowd = "flashcrowd" // spike + exponential tail
	KindSequence   = "sequence"   // segments played back to back
	KindFig2       = "fig2"       // the paper's Figure 2 composite profile
)

// Spec declares one open-loop workload. Kind selects the generator;
// the other fields parameterize it (each kind reads only its own — see
// the field comments). Durations are JSON integers in milliseconds,
// like the rest of the scenario layer.
type Spec struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`

	// Util is the constant utilization (kind "constant").
	Util float64 `json:"util,omitempty"`

	// Before/After/AtMS shape a sudden step (kind "step"); AtMS also
	// places a flash crowd's arrival (kind "flashcrowd").
	Before float64 `json:"before,omitempty"`
	After  float64 `json:"after,omitempty"`
	AtMS   int     `json:"at_ms,omitempty"`

	// From/To/StartMS/OverMS shape a gradual ramp (kind "ramp").
	From    float64 `json:"from,omitempty"`
	To      float64 `json:"to,omitempty"`
	StartMS int     `json:"start_ms,omitempty"`
	OverMS  int     `json:"over_ms,omitempty"`

	// Low/High bound a jitter square wave (kind "jitter"). PeriodMS is
	// the jitter period, the trace sample spacing (kind "trace") and
	// the diurnal cycle length (kind "diurnal").
	Low      float64 `json:"low,omitempty"`
	High     float64 `json:"high,omitempty"`
	PeriodMS int     `json:"period_ms,omitempty"`

	// Samples and Loop replay a recorded trace (kind "trace"); Loop
	// also restarts a stepped-load program (kind "steps").
	Samples []float64 `json:"samples,omitempty"`
	Loop    bool      `json:"loop,omitempty"`

	// Dist/Min/Max/Mean/Alpha/HoldMS parameterize seeded random demand
	// (kind "random"): dist is uniform (default), exponential or
	// heavytail; Min/Max bound the draw ([0.05, 0.95] default); Mean is
	// the exponential mean; Alpha the Pareto shape; HoldMS the resample
	// period (1000 ms default). HoldMS is also the per-level duration
	// of a stepped-load program (kind "steps").
	Dist   string  `json:"dist,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Mean   float64 `json:"mean,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`
	HoldMS int     `json:"hold_ms,omitempty"`

	// Levels is the stepped-load utilization program (kind "steps"),
	// the tsload `steps 10 12 14 …` line with values in [0, 1].
	Levels []float64 `json:"levels,omitempty"`

	// Base/Amplitude/PhaseMS shape a diurnal cycle (kind "diurnal");
	// Base is also a flash crowd's quiet baseline and Peak its crest,
	// with RiseMS the onset ramp and DecayMS the tail time constant
	// (kind "flashcrowd").
	Base      float64 `json:"base,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	PhaseMS   int     `json:"phase_ms,omitempty"`
	Peak      float64 `json:"peak,omitempty"`
	RiseMS    int     `json:"rise_ms,omitempty"`
	DecayMS   int     `json:"decay_ms,omitempty"`

	// Segments compose kinds back to back (kind "sequence"): each
	// segment runs for its for_ms, the last one forever.
	Segments []SegmentSpec `json:"segments,omitempty"`
}

// SegmentSpec is one timed segment of a sequence: a full Spec plus how
// long it plays.
type SegmentSpec struct {
	Spec
	// ForMS is the segment's duration in milliseconds.
	ForMS int `json:"for_ms"`
}

// MaxMS is the longest millisecond field a scenario may hold: the
// largest count of milliseconds a time.Duration can carry. A longer one
// would wrap when converted.
const MaxMS = math.MaxInt64 / int64(time.Millisecond)

// checkMS refuses a millisecond field that is negative or longer than
// MaxMS, so every accepted one converts to a non-negative Duration.
func checkMS(name string, v int) error {
	if v < 0 || int64(v) > MaxMS {
		return fmt.Errorf("workload: %s %d: outside [0, %d]", name, v, MaxMS)
	}
	return nil
}

// maxSequenceDepth bounds nested sequences; deeper nesting is almost
// certainly a mistake in a hand-written scenario.
const maxSequenceDepth = 4

// Validate reports the first invalid field. It is deep: sequence
// segments validate recursively. Every millisecond field must lie in
// [0, MaxMS], whichever kind reads it.
func (s *Spec) Validate() error {
	return s.validate(0)
}

func (s *Spec) validate(depth int) error {
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"at_ms", s.AtMS}, {"start_ms", s.StartMS}, {"over_ms", s.OverMS},
		{"period_ms", s.PeriodMS}, {"hold_ms", s.HoldMS}, {"phase_ms", s.PhaseMS},
		{"rise_ms", s.RiseMS}, {"decay_ms", s.DecayMS},
	} {
		if err := checkMS(f.name, f.v); err != nil {
			return err
		}
	}
	switch s.Kind {
	case KindConstant:
		if s.Util < 0 || s.Util > 1 {
			return fmt.Errorf("workload: constant util %v outside [0, 1]", s.Util)
		}
	case KindCPUBurn, KindFig2, KindStep, KindRamp:
		// no parameters beyond the millisecond fields checked above
	case KindJitter:
		if s.PeriodMS <= 0 {
			return fmt.Errorf("workload: jitter period_ms %d: need a positive period", s.PeriodMS)
		}
	case KindTrace:
		if len(s.Samples) == 0 {
			return fmt.Errorf("workload: trace needs at least one sample")
		}
		if s.PeriodMS <= 0 {
			return fmt.Errorf("workload: trace period_ms %d: need a positive sample spacing", s.PeriodMS)
		}
	case KindRandom:
		switch s.Dist {
		case "", "uniform", "exponential", "heavytail":
		default:
			return fmt.Errorf("workload: random dist %q: want uniform, exponential or heavytail", s.Dist)
		}
		if s.Max != 0 && s.Max < s.Min {
			return fmt.Errorf("workload: random max %v below min %v", s.Max, s.Min)
		}
	case KindSteps:
		if len(s.Levels) == 0 {
			return fmt.Errorf("workload: steps needs at least one level")
		}
		if s.HoldMS <= 0 {
			return fmt.Errorf("workload: steps hold_ms %d: need a positive per-level duration", s.HoldMS)
		}
	case KindDiurnal:
		if s.PeriodMS <= 0 {
			return fmt.Errorf("workload: diurnal period_ms %d: need a positive cycle length", s.PeriodMS)
		}
	case KindFlashCrowd:
		if s.Peak < s.Base {
			return fmt.Errorf("workload: flashcrowd peak %v below base %v", s.Peak, s.Base)
		}
	case KindSequence:
		if depth >= maxSequenceDepth {
			return fmt.Errorf("workload: sequences nested deeper than %d", maxSequenceDepth)
		}
		if len(s.Segments) == 0 {
			return fmt.Errorf("workload: sequence needs at least one segment")
		}
		for i := range s.Segments {
			seg := &s.Segments[i]
			if err := checkMS("for_ms", seg.ForMS); err != nil {
				return fmt.Errorf("workload: sequence segment %d: %w", i, err)
			}
			if err := seg.Spec.validate(depth + 1); err != nil {
				return fmt.Errorf("workload: sequence segment %d: %w", i, err)
			}
		}
	case "":
		return fmt.Errorf("workload: missing kind (want one of constant, cpuburn, step, ramp, jitter, trace, random, steps, diurnal, flashcrowd, sequence, fig2)")
	default:
		return fmt.Errorf("workload: kind %q: unknown (want one of constant, cpuburn, step, ramp, jitter, trace, random, steps, diurnal, flashcrowd, sequence, fig2)", s.Kind)
	}
	return nil
}

// Build instantiates the generator for one node. seed keys the whole
// family; the per-node stream is derived with rng.Mix(seed, node), so
// every node gets an independent instance — the fix for the shared-
// generator-state bug (one stateful generator attached to a whole
// fleet). Stateless kinds still get per-node seeds where they draw
// (random), so no two nodes ever replay each other's demand.
func (s *Spec) Build(seed uint64, node int) (Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.build(rng.Mix(seed, uint64(node))), nil
}

// build constructs the generator from an already-derived per-node
// seed. Validation has passed; every branch is total.
func (s *Spec) build(nodeSeed uint64) Generator {
	switch s.Kind {
	case KindConstant:
		return Constant(s.Util)
	case KindCPUBurn:
		return NewCPUBurn(rng.New(nodeSeed))
	case KindStep:
		return Step{Before: s.Before, After: s.After, At: ms(s.AtMS)}
	case KindRamp:
		return Ramp{From: s.From, To: s.To, Start: ms(s.StartMS), Over: ms(s.OverMS)}
	case KindJitter:
		return Jitter{Low: s.Low, High: s.High, Period: ms(s.PeriodMS)}
	case KindTrace:
		return Trace{Samples: s.Samples, Period: ms(s.PeriodMS), Loop: s.Loop}
	case KindRandom:
		r := Random{Seed: nodeSeed, Hold: ms(s.HoldMS), Lo: s.Min, Hi: s.Max, Mean: s.Mean, Alpha: s.Alpha}
		if s.HoldMS == 0 {
			r.Hold = time.Second
		}
		if s.Min == 0 && s.Max == 0 {
			r.Lo, r.Hi = 0.05, 0.95
		}
		switch s.Dist {
		case "exponential":
			r.Dist = DistExponential
		case "heavytail":
			r.Dist = DistHeavyTail
		default:
			r.Dist = DistUniform
		}
		return &held{r: r}
	case KindSteps:
		return Steps{Levels: s.Levels, Hold: ms(s.HoldMS), Loop: s.Loop}
	case KindDiurnal:
		return Diurnal{Base: s.Base, Amplitude: s.Amplitude, Period: ms(s.PeriodMS), Phase: ms(s.PhaseMS)}
	case KindFlashCrowd:
		return FlashCrowd{Base: s.Base, Peak: s.Peak, At: ms(s.AtMS), Rise: ms(s.RiseMS), Decay: ms(s.DecayMS)}
	case KindSequence:
		segs := make([]TimedSegment, len(s.Segments))
		for i := range s.Segments {
			// Each segment derives its own stream from the node's, so a
			// cpuburn segment and a random segment never correlate.
			segs[i] = TimedSegment{
				Gen: s.Segments[i].Spec.build(rng.Mix(nodeSeed, uint64(i)+1)),
				For: ms(s.Segments[i].ForMS),
			}
		}
		return Sequence{Segments: segs}
	case KindFig2:
		return Fig2Profile()
	}
	// Unreachable: Validate rejected every other kind.
	return Constant(0)
}

// TimeOnly reports whether the spec's generator is a pure function of
// simulated time, the same for every node: true for every kind but
// the per-node seeded ones (random, cpuburn), and for a sequence built
// only from time-only segments. Such a spec's nodes may share one
// generator, evaluated once per step through a Shared memo.
func (s *Spec) TimeOnly() bool {
	switch s.Kind {
	case KindRandom, KindCPUBurn:
		return false
	case KindSequence:
		for i := range s.Segments {
			if !s.Segments[i].Spec.TimeOnly() {
				return false
			}
		}
	}
	return true
}

// String names the spec for logs and reports.
func (s *Spec) String() string {
	if s == nil {
		return "none"
	}
	return s.Kind
}

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }
