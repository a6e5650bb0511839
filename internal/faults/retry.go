package faults

import (
	"fmt"
	"sync"
	"time"

	"thermctl/internal/metrics"
	"thermctl/internal/rng"
)

// RetryPolicy bounds a retry loop: at most MaxAttempts tries, exponential
// backoff from BaseDelay capped at MaxDelay, multiplied by a jitter factor
// drawn from [1-JitterFrac, 1], with the summed backoff never exceeding
// Budget (the per-call deadline).
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
	JitterFrac  float64
	Budget      time.Duration
}

// DefaultRetryPolicy is the policy used for actuator and transport
// wrappers: three attempts, 10 ms base doubling to at most 500 ms, half-
// range jitter, 2 s total budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		JitterFrac:  0.5,
		Budget:      2 * time.Second,
	}
}

// Retrier runs operations under a RetryPolicy with a deterministic jitter
// stream. The sleep function is injectable: pass nil in simulation (the
// control loop must never wait on the wall clock — backoff is then only
// accounted against the budget), or time.Sleep in a live daemon.
type Retrier struct {
	pol   RetryPolicy
	sleep func(time.Duration)

	mu  sync.Mutex
	src *rng.Source

	attempts *metrics.Counter
	retries  *metrics.Counter
	giveups  *metrics.Counter
}

// NewRetrier builds a retrier. src seeds the jitter stream and must not
// be shared with other consumers; sleep may be nil (no waiting).
func NewRetrier(pol RetryPolicy, src *rng.Source, sleep func(time.Duration)) *Retrier {
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = 1
	}
	return &Retrier{pol: pol, sleep: sleep, src: src}
}

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
	waited  time.Duration
}

// Begin starts a retry loop under the retrier's policy.
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
	if a.attempt >= r.pol.MaxAttempts {
		r.giveups.Inc()
		//thermlint:allow hotalloc -- give-up wrap: once per exhausted retry sequence, not per round
		*errp = fmt.Errorf("faults: gave up after %d attempts: %w", a.attempt, *errp)
		return false
	}
	d := r.delay(a.attempt)
	if r.pol.Budget > 0 && a.waited+d > r.pol.Budget {
		r.giveups.Inc()
		//thermlint:allow hotalloc -- budget-exhausted wrap: once per failed sequence, not per round
		*errp = fmt.Errorf("faults: retry budget %s exhausted after %d attempts: %w",
			r.pol.Budget, a.attempt, *errp)
		return false
	}
	a.waited += d
	r.retries.Inc()
	if r.sleep != nil {
		r.sleep(d)
	}
	a.attempt++
	r.attempts.Inc()
	return true
}

// delay computes the jittered backoff before attempt+1.
func (r *Retrier) delay(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 30 {
		shift = 30
	}
	d := r.pol.BaseDelay << uint(shift)
	if r.pol.MaxDelay > 0 && d > r.pol.MaxDelay {
		d = r.pol.MaxDelay
	}
	if r.pol.JitterFrac > 0 && r.src != nil {
		r.mu.Lock()
		f := 1 - r.pol.JitterFrac*r.src.Float64()
		r.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// InstrumentMetrics registers attempt/retry/giveup counters on reg.
// Wiring time only.
func (r *Retrier) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	attempts := reg.NewCounter("thermctl_retry_attempts_total",
		"operation attempts made under a retry policy", labels...)
	retries := reg.NewCounter("thermctl_retry_backoffs_total",
		"retries after a failed attempt", labels...)
	giveups := reg.NewCounter("thermctl_retry_giveups_total",
		"operations abandoned after exhausting attempts or budget", labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts = attempts
	r.retries = retries
	r.giveups = giveups
}
