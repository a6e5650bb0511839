// Package faults is the deterministic fault-injection plane.
//
// The paper's premise is that thermal control must keep working when the
// physical world misbehaves: sensors stick or drop out, SMBus transactions
// NAK, fan bearings degrade or the rotor seizes. This package gives
// every device model a single, seeded source of truth for "is something
// wrong right now": typed fault Episodes grouped into per-target Schedules,
// replayable bit-for-bit from a seed (Generate) or a JSON file (LoadPlan).
//
// The plane is split in two halves so that fault evaluation never perturbs
// the simulation's random streams or its parallel stepping contract:
//
//   - Plane (plane.go) runs in the serial controller phase of the cluster
//     loop. Each OnStep it folds the active episodes of every schedule into
//     a compact State and publishes it.
//   - Injector (plane.go) is the lock-free handle a device model polls from
//     its own (possibly parallel) step. It is nil-safe: an unattached or
//     nil injector always reads as "no faults".
//
// Devices draw any probabilistic decisions (NAK this transaction?) from
// their own rng stream, so the fault timeline itself is byte-identical for
// any worker count.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"thermctl/internal/rng"
)

// Kind identifies a fault mechanism. The set mirrors the failure modes the
// device models can express.
type Kind string

const (
	// SensorStuck freezes the sensor at its last good reading; reads keep
	// succeeding but never change.
	SensorStuck Kind = "sensor-stuck"
	// SensorDropout makes checked sensor reads fail outright (the hwmon
	// file returns EIO, the BMC sensor is absent).
	SensorDropout Kind = "sensor-dropout"
	// SensorSpike adds Param degrees C to every reading.
	SensorSpike Kind = "sensor-spike"
	// I2CFault makes each bus transaction fail with a generic bus error
	// with probability Rate.
	I2CFault Kind = "i2c-fault"
	// I2CNAK makes each bus transaction NAK with probability Rate,
	// modelling a device that intermittently stops acknowledging.
	I2CNAK Kind = "i2c-nak"
	// FanDegrade models bearing wear: the fan only reaches Param (a
	// fraction in (0,1]) of its commanded speed.
	FanDegrade Kind = "fan-degrade"
	// FanStall seizes the rotor regardless of commanded duty.
	FanStall Kind = "fan-stall"
)

// kinds lists every valid Kind in the order Generate draws from.
var kinds = [...]Kind{
	SensorStuck, SensorDropout, SensorSpike,
	I2CFault, I2CNAK,
	FanDegrade, FanStall,
}

// Valid reports whether k is a known fault kind.
func (k Kind) Valid() bool {
	for _, v := range kinds {
		if k == v {
			return true
		}
	}
	return false
}

// needsRate reports whether the kind is probabilistic (Rate required).
func (k Kind) needsRate() bool { return k == I2CFault || k == I2CNAK }

// Dur is a time.Duration that marshals to JSON as a human-readable string
// ("30s", "1m15s") and unmarshals from either that form or a bare number
// of seconds.
type Dur time.Duration

// MarshalJSON renders the duration as a quoted time.Duration string.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings or plain numbers of seconds.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %w", s, err)
		}
		*d = Dur(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("faults: duration must be a string or seconds: %s", b)
	}
	if math.IsNaN(secs) || math.IsInf(secs, 0) {
		return fmt.Errorf("faults: non-finite duration %v", secs)
	}
	*d = Dur(secs * float64(time.Second))
	return nil
}

// String renders the duration in time.Duration notation.
func (d Dur) String() string { return time.Duration(d).String() }

// Episode is one scheduled fault window: Kind is active on its target from
// Start (inclusive) to Start+Duration (exclusive) in simulation time.
type Episode struct {
	Kind     Kind    `json:"kind"`
	Start    Dur     `json:"start"`
	Duration Dur     `json:"for"`
	Param    float64 `json:"param,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
}

// active reports whether the episode covers simulation time now.
func (e Episode) active(now time.Duration) bool {
	start := time.Duration(e.Start)
	return now >= start && now < start+time.Duration(e.Duration)
}

// Validate checks the episode for structural errors.
func (e Episode) Validate() error {
	if !e.Kind.Valid() {
		return fmt.Errorf("unknown fault kind %q", e.Kind)
	}
	if e.Start < 0 {
		return fmt.Errorf("%s: negative start %s", e.Kind, e.Start)
	}
	if e.Duration <= 0 {
		return fmt.Errorf("%s: non-positive duration %s", e.Kind, e.Duration)
	}
	// The end must be representable: an overflowed end is negative, and
	// the episode would never be active.
	if e.Start > math.MaxInt64-e.Duration {
		return fmt.Errorf("%s: end %s + %s overflows", e.Kind, e.Start, e.Duration)
	}
	if math.IsNaN(e.Param) || math.IsInf(e.Param, 0) {
		return fmt.Errorf("%s: non-finite param", e.Kind)
	}
	if math.IsNaN(e.Rate) || e.Rate < 0 || e.Rate > 1 {
		return fmt.Errorf("%s: rate %v outside [0,1]", e.Kind, e.Rate)
	}
	if e.Kind.needsRate() && e.Rate == 0 {
		return fmt.Errorf("%s: rate required", e.Kind)
	}
	if e.Kind == FanDegrade && (e.Param <= 0 || e.Param > 1) {
		return fmt.Errorf("fan-degrade: param %v outside (0,1]", e.Param)
	}
	return nil
}

// Schedule is the ordered list of episodes aimed at one target. Targets
// are free-form names agreed between the plan author and the wiring code;
// the cluster uses its node names ("node0", "node1", ...).
type Schedule struct {
	Target   string    `json:"target"`
	Episodes []Episode `json:"episodes"`
}

// Plan is a named set of schedules — one complete fault campaign.
type Plan struct {
	Name      string     `json:"name"`
	Schedules []Schedule `json:"schedules"`
}

// Validate checks the whole plan: every episode well-formed, no duplicate
// or empty targets.
func (p Plan) Validate() error {
	seen := make(map[string]bool, len(p.Schedules))
	for i, s := range p.Schedules {
		if s.Target == "" {
			return fmt.Errorf("schedule %d: empty target", i)
		}
		if seen[s.Target] {
			return fmt.Errorf("duplicate target %q", s.Target)
		}
		seen[s.Target] = true
		for j, e := range s.Episodes {
			if err := e.Validate(); err != nil {
				return fmt.Errorf("target %q episode %d: %w", s.Target, j, err)
			}
		}
	}
	return nil
}

// ParsePlan decodes and validates a JSON fault plan.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("faults: invalid plan: %w", err)
	}
	return p, nil
}

// LoadPlan reads and parses a fault plan from a JSON file.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: %w", err)
	}
	return ParsePlan(data)
}

// genQuantum is the grain Generate aligns episode boundaries to — the
// controller sample period, so generated campaigns exercise whole samples.
const genQuantum = 250 * time.Millisecond

// Generate builds a deterministic fault campaign for the given targets
// over a total window: same seed and arguments, byte-identical plan. Each
// target gets its own rng stream (rng.Mix of the seed and the target
// index), one to three episodes with kind, placement, magnitude and rate
// drawn from that stream, and boundaries quantized to the 250 ms control
// sample grain.
func Generate(seed uint64, targets []string, total time.Duration) Plan {
	p := Plan{Name: "generated-" + strconv.FormatUint(seed, 10)}
	for i, tgt := range targets {
		src := rng.New(rng.Mix(seed, uint64(i)))
		n := 1 + src.Intn(3)
		sch := Schedule{Target: tgt}
		for e := 0; e < n; e++ {
			ep := Episode{Kind: kinds[src.Intn(len(kinds))]}
			start := time.Duration(src.Float64() * 0.6 * float64(total))
			dur := time.Duration((0.05 + 0.15*src.Float64()) * float64(total))
			ep.Start = Dur(quantize(start))
			ep.Duration = Dur(quantize(dur))
			switch ep.Kind {
			case SensorSpike:
				ep.Param = 8 + 8*src.Float64()
			case FanDegrade:
				ep.Param = 0.2 + 0.5*src.Float64()
			}
			if ep.Kind.needsRate() {
				ep.Rate = 0.1 + 0.4*src.Float64()
			}
			sch.Episodes = append(sch.Episodes, ep)
		}
		p.Schedules = append(p.Schedules, sch)
	}
	return p
}

// quantize aligns d to the generation grain, never below one quantum.
func quantize(d time.Duration) time.Duration {
	q := d.Round(genQuantum)
	if q < genQuantum {
		q = genQuantum
	}
	return q
}
