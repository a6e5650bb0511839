package simclock

import (
	"testing"
	"time"
)

func TestNewClockPanicsOnNonPositiveStep(t *testing.T) {
	for _, dt := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%v): expected panic", dt)
				}
			}()
			NewClock(dt)
		}()
	}
}

func TestStepAdvancesTime(t *testing.T) {
	c := NewClock(250 * time.Millisecond)
	if c.Now() != 0 || c.Dt() != 250*time.Millisecond {
		t.Fatalf("fresh clock: Now=%v Dt=%v, want 0, 250ms", c.Now(), c.Dt())
	}
	for i := 0; i < 8; i++ {
		c.Step()
	}
	if got, want := c.Now(), 2*time.Second; got != want {
		t.Errorf("Now after 8 steps of 250ms = %v, want %v", got, want)
	}
}
