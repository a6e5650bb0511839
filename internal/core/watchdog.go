package core

import (
	"fmt"
	"time"
)

// WatchdogConfig parameterizes the fan-failure watchdog.
type WatchdogConfig struct {
	// SamplePeriod is how often the tach is polled (default 1 s).
	SamplePeriod time.Duration
	// StallRPM is the reading at or below which the fan counts as not
	// spinning (default 100 RPM — tachometers read ~0 on a seized
	// rotor).
	StallRPM float64
	// StallSamples is how many consecutive stalled readings declare a
	// failure (default 3; a fan takes ~1 s to spin up from rest, so a
	// single zero can be a restart, not a failure).
	StallSamples int
	// RecoverSamples is how many consecutive healthy readings end the
	// emergency (default 5).
	RecoverSamples int
}

// DefaultWatchdogConfig returns the default thresholds.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		SamplePeriod:   time.Second,
		StallRPM:       100,
		StallSamples:   3,
		RecoverSamples: 5,
	}
}

// WatchdogEvent records one state change.
type WatchdogEvent struct {
	At      time.Duration
	Failure bool // true = failure declared, false = recovery
}

// WatchdogPolicy detects a seized CPU fan from its tachometer and
// responds in-band *immediately* — it forces the most effective DVFS
// mode the moment the rotor is confirmed stopped, instead of waiting
// for the die to heat through a temperature threshold. This is the
// fault-driven counterpart of tDVFS (the paper's related work, Choi et
// al., pairs DVFS with fan failure exactly this way): on a dead fan,
// every second at full power costs ~1 °C, so reacting to the cause
// beats reacting to the symptom. When the fan recovers, the nominal
// frequency is restored.
//
// It runs on a Binding whose reader is the tach (see NewWatchdog):
// each sample is one fan speed in RPM.
type WatchdogPolicy struct {
	cfg WatchdogConfig
	// floor is the DVFS actuator's most effective (lowest frequency)
	// mode.
	floor int

	stalled   int
	healthy   int
	emergency bool
	events    []WatchdogEvent

	// mt holds the optional metric handles (see InstrumentWatchdog in
	// metrics.go); every handle is nil-safe.
	mt watchdogMetrics
}

// NewWatchdog builds the watchdog: a binding that polls the tach
// reader rpm (e.g. the hwmon fan1_input file or an IPMI fan sensor)
// every SamplePeriod and commands the DVFS actuator during an
// emergency. Its policy is a *WatchdogPolicy.
func NewWatchdog(cfg WatchdogConfig, rpm TempReader, act *DVFSActuator) (*Binding, error) {
	if rpm == nil || act == nil {
		return nil, fmt.Errorf("core: watchdog needs a tach reader and an actuator")
	}
	if cfg.SamplePeriod <= 0 {
		return nil, fmt.Errorf("core: watchdog: non-positive sample period")
	}
	if cfg.StallSamples <= 0 {
		cfg.StallSamples = 3
	}
	if cfg.RecoverSamples <= 0 {
		cfg.RecoverSamples = 5
	}
	return NewBinding(BindingConfig{
		Policy:       &WatchdogPolicy{cfg: cfg, floor: act.NumModes() - 1},
		Read:         rpm,
		SamplePeriod: cfg.SamplePeriod,
		FailSafe:     FailSafeConfig{Disable: true},
		Actuators:    []Actuator{act},
	})
}

// Name implements Policy.
func (w *WatchdogPolicy) Name() string { return "watchdog" }

// Emergency reports whether a fan failure is currently declared.
func (w *WatchdogPolicy) Emergency() bool { return w.emergency }

// Events returns the state-change log.
func (w *WatchdogPolicy) Events() []WatchdogEvent {
	return append([]WatchdogEvent(nil), w.events...)
}

// Decide implements Policy: count the tach sample as stalled or
// healthy and make the declaration or recovery transition it confirms.
// A failed write leaves the state unchanged, so the next sample
// retries it.
func (w *WatchdogPolicy) Decide(tx *Txn) {
	if tx.Sample() <= w.cfg.StallRPM {
		w.stalled++
		w.healthy = 0
	} else {
		w.healthy++
		w.stalled = 0
	}

	switch {
	case !w.emergency && w.stalled >= w.cfg.StallSamples:
		// Confirmed seizure: drop to the most effective (lowest
		// frequency) mode right now.
		if !tx.Apply(0, w.floor) {
			return
		}
		w.emergency = true
		w.mt.failures.Inc()
		w.mt.emergency.SetBool(true)
		//thermlint:allow hotalloc -- seizure confirmations are rare transitions; the event log is the audit trail
		w.events = append(w.events, WatchdogEvent{At: tx.Now(), Failure: true})
	case w.emergency && w.healthy >= w.cfg.RecoverSamples:
		if !tx.Apply(0, 0) {
			return
		}
		w.emergency = false
		w.mt.recoveries.Inc()
		w.mt.emergency.SetBool(false)
		//thermlint:allow hotalloc -- recoveries are rare transitions; the event log is the audit trail
		w.events = append(w.events, WatchdogEvent{At: tx.Now(), Failure: false})
	}
}
