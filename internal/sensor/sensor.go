// Package sensor models the digital thermal sensors embedded in the
// processor, as read through lm-sensors on the paper's platform.
//
// A real on-die sensor does not report the true junction temperature: the
// reading is quantized by the ADC (0.25 °C on the Athlon64 family),
// carries per-part calibration offset, and jitters by a fraction of a
// degree between consecutive reads. The controller's two-level history
// window exists precisely to be robust to this measurement noise, so the
// simulation must include it.
package sensor

import (
	"errors"
	"math"

	"thermctl/internal/faults"
	"thermctl/internal/rng"
)

// ErrDropout is returned by checked reads while a sensor-dropout fault
// episode is active: the conversion failed and no fresh sample exists.
var ErrDropout = errors.New("sensor: reading unavailable (dropout)")

// Source supplies the true physical temperature, in °C.
type Source interface {
	Temperature() float64
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() float64

// Temperature implements Source.
func (f SourceFunc) Temperature() float64 { return f() }

// Config describes a thermal sensor's error characteristics.
type Config struct {
	// Quantum is the ADC resolution in °C; readings are rounded to a
	// multiple of it. Zero disables quantization.
	Quantum float64
	// NoiseStd is the standard deviation of per-read Gaussian noise, °C.
	NoiseStd float64
	// Offset is a fixed per-part calibration error, °C.
	Offset float64
}

// Default returns the sensor characteristics used in the reproduction:
// 0.25 °C quantization and 0.15 °C read noise, matching an Athlon64-class
// on-die diode read through lm-sensors.
func Default() Config {
	return Config{Quantum: 0.25, NoiseStd: 0.15}
}

// Sensor reads a physical temperature source with realistic error. It
// is owned by the stepping goroutine; not safe for concurrent use.
//
// Noise is keyed to a conversion tick, not to the Read call: a real ADC
// converts at a fixed rate and every consumer (lm-sensors, the fan
// controller chip, the BMC) sees the same latest conversion. When a
// tick source is installed (the node supplies its step counter), reads
// within one tick return identical values, so attaching an extra
// observer can never perturb a simulation. Without a tick source each
// Read is its own conversion, which is convenient for unit tests.
//
// Because tick-keyed noise is a pure function of the tick, a consumer
// that only compares the reading against limits (Outside) need not
// draw it: the sensor records the conversion's noise-free value and
// tick, and computes the sample only when something reads it back.
//
// A conversion rounds the noisy value to the quantum, so it usually
// needs only a bracket on the noise, not the noise itself: when both
// ends of rng.NormBounds's interval round to the same quantum step, so
// does the draw, and the sensor skips the Box–Muller math (see
// quantizeNoisy).
type Sensor struct {
	cfg       Config
	invQ      float64 // 1/Quantum, for the bracketed rounding
	src       Source
	noise     *rng.Source
	noiseBase uint64
	tick      func() uint64

	// inj, when attached, drives stuck/dropout/spike fault episodes.
	inj *faults.Injector
	// lastGood holds the most recent successful sample; stuck episodes
	// and unchecked reads during dropout replay it (through good).
	lastGood float64
	haveGood bool
	// deferred marks that the most recent successful sample is the
	// conversion of deferRaw (source + offset + spike) at deferTick,
	// not yet computed into lastGood.
	deferred  bool
	deferRaw  float64
	deferTick uint64
}

// New returns a sensor reading src with cfg's error model, drawing noise
// from the given stream. A nil stream disables noise.
func New(cfg Config, src Source, noise *rng.Source) *Sensor {
	s := &Sensor{cfg: cfg, src: src, noise: noise}
	if cfg.Quantum > 0 {
		s.invQ = 1 / cfg.Quantum
	}
	if noise != nil {
		s.noiseBase = noise.Uint64()
	}
	return s
}

// SetTickSource installs the conversion-tick supplier. All reads within
// one tick value return the same sample.
func (s *Sensor) SetTickSource(fn func() uint64) { s.tick = fn }

// AttachInjector subscribes the sensor to a fault plane. Wiring time
// only; a nil injector (the default) means no faults.
func (s *Sensor) AttachInjector(inj *faults.Injector) { s.inj = inj }

// Read returns one temperature sample in °C, with offset, noise and
// quantization applied. It never fails: during a dropout episode it
// replays the last good sample (a real register holds its last
// conversion), so legacy consumers keep working. Fault-aware consumers
// should use ReadChecked.
//
//thermlint:unit °C
func (s *Sensor) Read() float64 {
	v, err := s.ReadChecked()
	if err != nil {
		if s.haveGood {
			return s.good()
		}
		return 0
	}
	return v
}

// ReadChecked returns one temperature sample in °C, or an error while a
// dropout fault episode is active. A stuck episode freezes the reading
// at the last good sample without erroring.
//
//thermlint:unit °C
func (s *Sensor) ReadChecked() (float64, error) {
	st := s.inj.State()
	if st.SensorDropout {
		return 0, ErrDropout
	}
	if st.SensorStuck && s.haveGood {
		return s.good(), nil
	}
	return s.convert(s.src.Temperature() + s.cfg.Offset + st.SensorSpikeC), nil
}

// Outside reports whether one sample lies outside [lo, hi], i.e.
// v < lo || v > hi for the v that ReadChecked would return, with the
// same fault behaviour: ErrDropout during a dropout, and the last good
// sample during a stuck episode.
//
// Noise and quantization move a sample at most NoiseStd·NormMax +
// Quantum from its noise-free value (source + offset + spike). When
// that value lies farther than this bound from both limits, the noise
// cannot change the answer, and Outside decides it without drawing.
// The conversion still happens as far as every other reader can tell:
// the sensor keeps its noise-free value and tick, and the first read
// that needs the last good sample computes it, bit-identical to the
// eager conversion. Nothing is reused across conversions; Read and
// ReadChecked always convert. Without a tick source Outside always
// converts, since a deferred draw would reorder the noise stream.
func (s *Sensor) Outside(lo, hi float64) (bool, error) {
	st := s.inj.State()
	if st.SensorDropout {
		return false, ErrDropout
	}
	if st.SensorStuck && s.haveGood {
		v := s.good()
		return v < lo || v > hi, nil
	}
	raw := s.src.Temperature() + s.cfg.Offset + st.SensorSpikeC
	if s.tick != nil {
		// The slack covers the rounding of the noise, sum and
		// quantization steps, far below a micro-degree at physical
		// temperatures.
		m := s.cfg.Quantum + 1e-9*(1+math.Abs(raw))
		if s.noise != nil && s.cfg.NoiseStd > 0 {
			m += s.cfg.NoiseStd * rng.NormMax
		}
		in, out := raw-m > lo && raw+m < hi, raw+m < lo || raw-m > hi
		if in || out {
			s.deferred, s.deferRaw, s.deferTick, s.haveGood = true, raw, s.tick(), true
			return out, nil
		}
	}
	v := s.convert(raw)
	return v < lo || v > hi, nil
}

// good returns the last good sample, computing a deferred conversion
// first. Callers check haveGood.
func (s *Sensor) good() float64 {
	if s.deferred {
		s.lastGood, s.deferred = s.convertAt(s.deferRaw, s.deferTick), false
	}
	return s.lastGood
}

// convert converts the noise-free value raw now and records the sample
// as the last good one: with the current tick's noise, or the noise
// stream's next value without a tick source.
func (s *Sensor) convert(raw float64) float64 {
	var t float64
	switch {
	case s.tick != nil:
		t = s.convertAt(raw, s.tick())
	case s.noise != nil && s.cfg.NoiseStd > 0:
		t = s.quantizeNoisy(raw, s.noise)
	default:
		t = s.quantize(raw)
	}
	s.lastGood, s.haveGood, s.deferred = t, true, false
	return t
}

// convertAt converts the noise-free value raw with the noise of the
// given tick.
func (s *Sensor) convertAt(raw float64, tick uint64) float64 {
	if s.noise != nil && s.cfg.NoiseStd > 0 {
		src := rng.At(s.noiseBase ^ (tick * 0x9e3779b97f4a7c15))
		return s.quantizeNoisy(raw, &src)
	}
	return s.quantize(raw)
}

// quantizeNoisy returns quantize(raw + NoiseStd·src.Norm()), bit for
// bit, and advances src by the two values Norm consumes. It runs Norm,
// on a copy of src, only when the bracket cannot decide the quantum
// step.
//
// rng.NormBounds brackets the draw, and x ↦ round((raw + std·x)/Q) is
// monotone in x (IEEE multiplication, addition and division and
// math.Round all are), so when both ends of the bracket round to the
// same step k, so does the draw. The ends are computed with 1/Q and
// floor(·+½) rather than /Q and math.Round, and widened by the slack m
// that Outside uses; m is at least 1e5 times the rounding those swaps
// can introduce, so the two ends agreeing puts the eager quotient
// strictly inside (k-½, k+½) and math.Round returns k, whose product
// with Q is the eager sample. k = 0 draws anyway, because math.Round
// keeps the sign of a negative quotient and -0·Q is not 0·Q; so do a
// NaN or infinite raw, whose ends never agree.
func (s *Sensor) quantizeNoisy(raw float64, src *rng.Source) float64 {
	std := s.cfg.NoiseStd
	eager := *src
	lo, hi, ok := src.NormBounds()
	if ok && s.cfg.Quantum > 0 {
		m := 1e-9 * (1 + math.Abs(raw))
		k := math.Floor((raw+std*lo-m)*s.invQ + 0.5)
		if k != 0 && k == math.Floor((raw+std*hi+m)*s.invQ+0.5) {
			return k * s.cfg.Quantum
		}
	}
	return s.quantize(raw + std*eager.Norm())
}

func (s *Sensor) quantize(t float64) float64 {
	if s.cfg.Quantum > 0 {
		t = math.Round(t/s.cfg.Quantum) * s.cfg.Quantum
	}
	return t
}

// Millidegrees returns one sample in millidegrees Celsius, the unit used
// by Linux hwmon temp*_input files.
//
//thermlint:unit milli°C
func (s *Sensor) Millidegrees() int64 {
	return int64(math.Round(s.Read() * 1000))
}

// CheckedMillidegrees is Millidegrees with dropout faults surfaced as an
// error, matching the EIO a dead hwmon temp*_input read returns.
//
//thermlint:unit milli°C
func (s *Sensor) CheckedMillidegrees() (int64, error) {
	v, err := s.ReadChecked()
	if err != nil {
		return 0, err
	}
	return int64(math.Round(v * 1000)), nil
}
