package faults

import (
	"errors"
	"testing"

	"thermctl/internal/metrics"
)

func TestRetrierSucceedsAfterFailures(t *testing.T) {
	r := NewRetrier()
	calls := 0
	err := do(r, func() error {
		calls++
		if calls < maxAttempts {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != maxAttempts {
		t.Fatalf("want %d calls, got %d", maxAttempts, calls)
	}
}

func TestRetrierGivesUpAndWrapsError(t *testing.T) {
	sentinel := errors.New("dead")
	r := NewRetrier()
	calls := 0
	err := do(r, func() error { calls++; return sentinel })
	if calls != maxAttempts {
		t.Fatalf("want %d calls, got %d", maxAttempts, calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error does not wrap the cause: %v", err)
	}
}

func TestRetrierMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRetrier()
	r.InstrumentMetrics(reg)
	_ = do(r, func() error { return errors.New("dead") })
	if err := do(r, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := r.attempts.Value(); got != maxAttempts+1 {
		t.Fatalf("attempts=%d want %d", got, maxAttempts+1)
	}
	if got := r.retries.Value(); got != maxAttempts-1 {
		t.Fatalf("retries=%d want %d", got, maxAttempts-1)
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
