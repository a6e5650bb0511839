package core

import (
	"fmt"
	"time"
)

// The watchdog's fixed thresholds.
const (
	// watchdogPeriod is how often the tach is polled.
	watchdogPeriod = time.Second
	// stallRPM is the reading at or below which the fan counts as not
	// spinning: tachometers read ~0 on a seized rotor.
	stallRPM = 100
	// stallSamples is how many consecutive stalled readings declare a
	// failure. A fan takes ~1 s to spin up from rest, so a single zero
	// can be a restart, not a failure.
	stallSamples = 3
	// healthySamples is how many consecutive healthy readings end the
	// emergency.
	healthySamples = 5
)

// WatchdogEvent records one state change.
type WatchdogEvent struct {
	At time.Duration
	//thermlint:allow deadcode -- oracle: the watchdog golden records each edge's direction
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
	// floor is the DVFS actuator's most effective (lowest frequency)
	// mode.
	floor int

	stalled   int
	healthy   int
	emergency bool
	events    []WatchdogEvent
}

// NewWatchdog builds the watchdog: a binding that polls the tach
// reader rpm (e.g. the hwmon fan1_input file or an IPMI fan sensor)
// once a second and commands the DVFS actuator during an emergency.
// Its policy is a *WatchdogPolicy.
func NewWatchdog(rpm TempReader, act *DVFSActuator) (*Binding, error) {
	if rpm == nil || act == nil {
		return nil, fmt.Errorf("core: watchdog needs a tach reader and an actuator")
	}
	return NewBinding(BindingConfig{
		Policy:       &WatchdogPolicy{floor: act.NumModes() - 1},
		Read:         rpm,
		SamplePeriod: watchdogPeriod,
		NoFailSafe:   true,
		Actuators:    []Actuator{act},
	})
}

// Emergency reports whether a fan failure is currently declared.
//
//thermlint:allow deadcode -- oracle: the watchdog golden records the emergency flag
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
	if tx.Sample() <= stallRPM {
		w.stalled++
		w.healthy = 0
	} else {
		w.healthy++
		w.stalled = 0
	}

	switch {
	case !w.emergency && w.stalled >= stallSamples:
		// Confirmed seizure: drop to the most effective (lowest
		// frequency) mode right now.
		if !tx.Apply(0, w.floor) {
			return
		}
		w.emergency = true
		//thermlint:allow hotalloc -- seizure confirmations are rare transitions; the event log is the audit trail
		w.events = append(w.events, WatchdogEvent{At: tx.Now(), Failure: true})
	case w.emergency && w.healthy >= healthySamples:
		if !tx.Apply(0, 0) {
			return
		}
		w.emergency = false
		//thermlint:allow hotalloc -- recoveries are rare transitions; the event log is the audit trail
		w.events = append(w.events, WatchdogEvent{At: tx.Now(), Failure: false})
	}
}
