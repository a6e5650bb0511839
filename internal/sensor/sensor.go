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
type Sensor struct {
	cfg       Config
	src       Source
	noise     *rng.Source
	noiseBase uint64
	tick      func() uint64

	// inj, when attached, drives stuck/dropout/spike fault episodes.
	inj *faults.Injector
	// lastGood holds the most recent successful sample; stuck episodes
	// and unchecked reads during dropout replay it.
	lastGood float64
	haveGood bool
}

// New returns a sensor reading src with cfg's error model, drawing noise
// from the given stream. A nil stream disables noise.
func New(cfg Config, src Source, noise *rng.Source) *Sensor {
	s := &Sensor{cfg: cfg, src: src, noise: noise}
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
			return s.lastGood
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
	if st.SensorStuck {
		if s.haveGood {
			return s.lastGood, nil
		}
	}
	t := s.src.Temperature() + s.cfg.Offset + st.SensorSpikeC
	if s.noise != nil && s.cfg.NoiseStd > 0 {
		t += s.cfg.NoiseStd * s.drawNoise()
	}
	if s.cfg.Quantum > 0 {
		t = math.Round(t/s.cfg.Quantum) * s.cfg.Quantum
	}
	s.lastGood, s.haveGood = t, true
	return t, nil
}

// drawNoise returns a standard-normal value: tick-keyed when a tick
// source is installed, stream-sequential otherwise.
func (s *Sensor) drawNoise() float64 {
	if s.tick == nil {
		return s.noise.Norm()
	}
	src := rng.At(s.noiseBase ^ (s.tick() * 0x9e3779b97f4a7c15))
	return src.Norm()
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
