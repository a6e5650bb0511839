// Package simclock provides a deterministic, fixed-step simulation
// clock.
//
// All thermal, power and workload models in this repository advance in
// lock-step under a single Clock so that every experiment is exactly
// reproducible: the same seed and parameters always produce the same
// temperature traces, the same controller decisions and the same summary
// statistics. Real wall-clock time is never consulted. Work on its own
// cadence is scheduled by the cluster (cluster.Scheduled), not by the
// clock.
package simclock

import (
	"fmt"
	"time"
)

// Clock is a deterministic fixed-step simulation clock.
//
// The zero value is not usable; construct with NewClock.
type Clock struct {
	dt  time.Duration
	now time.Duration
}

// NewClock returns a clock that advances by dt per Step.
// It panics if dt is not positive, since a non-advancing clock would
// never reach any deadline.
func NewClock(dt time.Duration) *Clock {
	if dt <= 0 {
		panic(fmt.Sprintf("simclock: non-positive step %v", dt))
	}
	return &Clock{dt: dt}
}

// Now returns the current simulated time, measured from the start of the
// simulation.
func (c *Clock) Now() time.Duration { return c.now }

// Dt returns the step size.
func (c *Clock) Dt() time.Duration { return c.dt }

// Step advances simulated time by one dt.
func (c *Clock) Step() { c.now += c.dt }
