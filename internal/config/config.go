// Package config loads and validates the JSON scenario every thermctl
// tool runs from: the topology, workload, fault campaign and control
// section. The control section's tuning (Config) carries the policy
// parameter, actuator caps, thresholds and sampling rates an operator
// would set per machine class. JSON is the common denominator for
// fleet configuration management.
package config

import (
	"fmt"
	"time"

	"thermctl/internal/core"
)

// Config is the control tuning, serialized as a scenario's
// control.tuning. Zero-valued fields take the documented defaults when
// Normalize is applied.
type Config struct {
	// Pp is the control policy in [1, 100]. Default 50.
	Pp int `json:"pp"`
	// MaxFanDuty caps the fan, percent. Default 100.
	MaxFanDuty float64 `json:"max_fan_duty"`
	// ThresholdC is the tDVFS trigger temperature. Default 51.
	ThresholdC float64 `json:"threshold_c"`
	// HysteresisC is the tDVFS restore hysteresis. Default 3.
	HysteresisC float64 `json:"hysteresis_c"`
	// SampleMS is the controller sampling period in milliseconds.
	// Default 250 (four samples per second).
	SampleMS int `json:"sample_ms"`
	// TminC and TmaxC bound the safe operating range used by the
	// control-array index coefficient. Defaults 38 and 82.
	TminC float64 `json:"tmin_c"`
	TmaxC float64 `json:"tmax_c"`
}

// Default returns the paper-parameter configuration.
func Default() Config {
	return Config{
		Pp:          50,
		MaxFanDuty:  100,
		ThresholdC:  51,
		HysteresisC: 3,
		SampleMS:    250,
		TminC:       38,
		TmaxC:       82,
	}
}

// Normalize fills zero-valued fields with defaults.
func (c *Config) Normalize() {
	d := Default()
	if c.Pp == 0 {
		c.Pp = d.Pp
	}
	if c.MaxFanDuty == 0 {
		c.MaxFanDuty = d.MaxFanDuty
	}
	if c.ThresholdC == 0 {
		c.ThresholdC = d.ThresholdC
	}
	if c.HysteresisC == 0 {
		c.HysteresisC = d.HysteresisC
	}
	if c.SampleMS == 0 {
		c.SampleMS = d.SampleMS
	}
	if c.TminC == 0 {
		c.TminC = d.TminC
	}
	if c.TmaxC == 0 {
		c.TmaxC = d.TmaxC
	}
}

// Validate reports the first invalid field.
func (c *Config) Validate() error {
	if c.Pp < 1 || c.Pp > 100 {
		return fmt.Errorf("config: pp %d outside [1, 100]", c.Pp)
	}
	if c.MaxFanDuty < 1 || c.MaxFanDuty > 100 {
		return fmt.Errorf("config: max_fan_duty %v outside [1, 100]", c.MaxFanDuty)
	}
	if c.TmaxC <= c.TminC {
		return fmt.Errorf("config: tmax_c %v must exceed tmin_c %v", c.TmaxC, c.TminC)
	}
	if c.ThresholdC <= c.TminC || c.ThresholdC >= c.TmaxC {
		return fmt.Errorf("config: threshold_c %v outside (tmin, tmax)", c.ThresholdC)
	}
	if c.HysteresisC < 0 || c.HysteresisC > 20 {
		return fmt.Errorf("config: hysteresis_c %v outside [0, 20]", c.HysteresisC)
	}
	if c.SampleMS < 10 || c.SampleMS > 60000 {
		return fmt.Errorf("config: sample_ms %d outside [10, 60000]", c.SampleMS)
	}
	return nil
}

// SamplePeriod returns the sampling period as a duration.
func (c *Config) SamplePeriod() time.Duration {
	return time.Duration(c.SampleMS) * time.Millisecond
}

// ControllerConfig converts to the fan controller's configuration.
func (c *Config) ControllerConfig() core.Config {
	return core.Config{
		Pp:           c.Pp,
		TminC:        c.TminC,
		TmaxC:        c.TmaxC,
		SamplePeriod: c.SamplePeriod(),
	}
}

// TDVFSConfig converts to the tDVFS daemon's configuration.
func (c *Config) TDVFSConfig() core.TDVFSConfig {
	cfg := core.DefaultTDVFSConfig(c.Pp)
	cfg.ThresholdC = c.ThresholdC
	cfg.HysteresisC = c.HysteresisC
	cfg.SamplePeriod = c.SamplePeriod()
	return cfg
}
