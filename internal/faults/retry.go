package faults

import (
	"fmt"

	"thermctl/internal/metrics"
)

// maxAttempts bounds a retry loop: an operation that fails this many
// times in a row is given up. The attempts follow each other at once:
// the control loop must never wait on the wall clock.
const maxAttempts = 3

// Retrier runs operations under up to maxAttempts attempts and counts
// the attempts, retries and give-ups.
type Retrier struct {
	attempts *metrics.Counter
	retries  *metrics.Counter
	giveups  *metrics.Counter
}

// NewRetrier builds a retrier; its counters stay nil (inert) until
// InstrumentMetrics.
func NewRetrier() *Retrier { return &Retrier{} }

// Attempt is the state of one closure-free retry loop, driven by the
// caller:
//
//	var err error
//	for a := r.Begin(); a.Next(&err); {
//		err = port.SetKHz(f)
//	}
//	return err
//
// The zero-allocation shape matters on the actuation path: a Do closure
// capturing the argument would allocate per call in Step-reachable code
// (hotalloc).
type Attempt struct {
	r       *Retrier
	attempt int
}

// Begin starts a retry loop.
func (r *Retrier) Begin() Attempt { return Attempt{r: r} }

// Next reports whether the caller should run (another) attempt. errp
// points at the previous attempt's error (ignored before the first).
// When Next returns false, *errp holds the final outcome: nil on
// success, or the last error wrapped with the give-up cause.
func (a *Attempt) Next(errp *error) bool {
	r := a.r
	if a.attempt == 0 {
		a.attempt = 1
		r.attempts.Inc()
		return true
	}
	if *errp == nil {
		return false
	}
	if a.attempt >= maxAttempts {
		r.giveups.Inc()
		//thermlint:allow hotalloc -- give-up wrap: once per exhausted retry sequence, not per round
		*errp = fmt.Errorf("faults: gave up after %d attempts: %w", a.attempt, *errp)
		return false
	}
	r.retries.Inc()
	a.attempt++
	r.attempts.Inc()
	return true
}

// InstrumentMetrics registers attempt/retry/giveup counters on reg.
// Wiring time only.
func (r *Retrier) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	r.attempts = reg.NewCounter("thermctl_retry_attempts_total",
		"operation attempts made under a retry policy", labels...)
	r.retries = reg.NewCounter("thermctl_retry_backoffs_total",
		"retries after a failed attempt", labels...)
	r.giveups = reg.NewCounter("thermctl_retry_giveups_total",
		"operations abandoned after exhausting attempts", labels...)
}
