package baseline

import (
	"errors"
	"sync"
	"testing"
	"time"

	"thermctl/internal/hwmon"
)

// These tests exercise the Errors() vs OnStep data race the baselines
// historically had: daemons read the error counter from their status
// goroutines while the control loop incremented a plain uint64. The
// engine binding made the counter atomic; run with -race.

// deadFanPort rejects every write.
type deadFanPort struct{}

func (deadFanPort) SetDutyPercent(float64) error { return errors.New("pwm bus dead") }
func (deadFanPort) DutyPercent() (float64, error) {
	return 0, errors.New("pwm bus dead")
}

func TestStaticFanErrorsConcurrentWithOnStep(t *testing.T) {
	failing := func() (float64, error) { return 0, errors.New("sensor dead") }
	s, err := NewStaticFan(100, failing, deadFanPort{})
	if err != nil {
		t.Fatal(err)
	}
	period := staticPeriod
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 2000; i++ {
			s.OnStep(time.Duration(i) * period)
		}
	}()
	for i := 0; i < 2000; i++ {
		_ = s.Errors()
	}
	wg.Wait()
	if got := s.Errors(); got != 2000 {
		t.Errorf("Errors = %d after 2000 failed samples, want 2000", got)
	}
}

func TestConstantFanErrorsConcurrentWithOnStep(t *testing.T) {
	c := NewConstantFan(75, deadFanPort{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 2000; i++ {
			c.OnStep(time.Duration(i) * time.Second)
		}
	}()
	for i := 0; i < 2000; i++ {
		_ = c.Errors()
	}
	wg.Wait()
	if got := c.Errors(); got != 2000 {
		t.Errorf("Errors = %d after 2000 failed pins, want 2000", got)
	}
}

// deadFreqPort advertises a frequency table but rejects every write.
type deadFreqPort struct{}

func (deadFreqPort) AvailableKHz() ([]int64, error) {
	return []int64{2400000, 2200000, 2000000, 1800000, 1600000}, nil
}
func (deadFreqPort) SetKHz(int64) error         { return errors.New("cpufreq dead") }
func (deadFreqPort) CurrentKHz() (int64, error) { return 0, errors.New("cpufreq dead") }

func TestCPUSpeedErrorsConcurrentWithOnStep(t *testing.T) {
	fs := hwmon.NewFS()
	fs.Register("/proc/stat", &hwmon.FuncFile{
		ReadFn: func() (string, error) { return "", errors.New("procfs dead") },
	})
	cs, err := NewCPUSpeed(fs, deadFreqPort{})
	if err != nil {
		t.Fatal(err)
	}
	interval := cpuSpeedInterval
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 2000; i++ {
			cs.OnStep(time.Duration(i) * interval)
		}
	}()
	for i := 0; i < 2000; i++ {
		_ = cs.Errors()
	}
	wg.Wait()
	if got := cs.Errors(); got != 2000 {
		t.Errorf("Errors = %d after 2000 failed evaluations, want 2000", got)
	}
}
