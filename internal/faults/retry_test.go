package faults

import (
	"errors"
	"testing"
	"time"

	"thermctl/internal/metrics"
	"thermctl/internal/rng"
)

func TestRetrierSucceedsAfterFailures(t *testing.T) {
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, rng.New(1), nil)
	calls := 0
	err := do(r, func() error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("want 3 calls, got %d", calls)
	}
}

func TestRetrierGivesUpAndWrapsError(t *testing.T) {
	sentinel := errors.New("dead")
	r := NewRetrier(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}, rng.New(1), nil)
	calls := 0
	err := do(r, func() error { calls++; return sentinel })
	if calls != 4 {
		t.Fatalf("want 4 calls, got %d", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error does not wrap the cause: %v", err)
	}
}

func TestRetrierBudgetBoundsBackoff(t *testing.T) {
	// 100 attempts allowed but a budget that only covers the first
	// backoff: the second delay (2*BaseDelay jittered down by at most
	// half) would exceed it.
	pol := RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    time.Second,
		Budget:      12 * time.Millisecond,
	}
	r := NewRetrier(pol, nil, nil)
	calls := 0
	err := do(r, func() error { calls++; return errors.New("dead") })
	if err == nil {
		t.Fatal("budget never exhausted")
	}
	if calls != 2 {
		t.Fatalf("want 2 calls (10ms then budget blown), got %d", calls)
	}
}

func TestRetrierJitterDeterministic(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond, JitterFrac: 0.5}
	collect := func() []time.Duration {
		r := NewRetrier(pol, rng.New(42), func(time.Duration) {})
		var ds []time.Duration
		for a := 1; a < 5; a++ {
			ds = append(ds, r.delay(a))
		}
		return ds
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
		base := pol.BaseDelay << uint(i)
		if base > pol.MaxDelay {
			base = pol.MaxDelay
		}
		if a[i] > base || a[i] < time.Duration(float64(base)*(1-pol.JitterFrac)) {
			t.Fatalf("delay %d out of jitter range: %v (base %v)", i, a[i], base)
		}
	}
}

func TestRetrierSleepsBetweenAttempts(t *testing.T) {
	var slept []time.Duration
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		nil, func(d time.Duration) { slept = append(slept, d) })
	_ = do(r, func() error { return errors.New("dead") })
	if len(slept) != 2 {
		t.Fatalf("want 2 sleeps, got %v", slept)
	}
	if slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("unjittered exponential backoff wrong: %v", slept)
	}
}

func TestRetrierMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRetrier(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, rng.New(3), nil)
	r.InstrumentMetrics(reg)
	_ = do(r, func() error { return errors.New("dead") })
	if err := do(r, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := r.attempts.Value(); got != 3 {
		t.Fatalf("attempts=%d want 3", got)
	}
	if got := r.retries.Value(); got != 1 {
		t.Fatalf("retries=%d want 1", got)
	}
	if got := r.giveups.Value(); got != 1 {
		t.Fatalf("giveups=%d want 1", got)
	}
}

// do drives op through r's Begin/Next loop, as the actuation wrappers
// do, until it succeeds or r gives up.
func do(r *Retrier, op func() error) error {
	var err error
	for a := r.Begin(); a.Next(&err); {
		err = op()
	}
	return err
}
