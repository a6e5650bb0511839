package cluster

import (
	"errors"
	"slices"
	"testing"
	"time"

	"thermctl/internal/workload"
)

// TestSampleSchedule: the sampler fires at the first step and then
// once per interval, hands every sink the same frame in order, and the
// frame is every node's SampleNode block in node order.
func TestSampleSchedule(t *testing.T) {
	c := newCluster(t, 3)
	c.Settle(0)
	var times []time.Duration
	var order []string
	want := make([]float64, len(c.Nodes)*FrameWidth)
	check := func(now time.Duration, frame []float64) {
		times = append(times, now)
		order = append(order, "check")
		for i, n := range c.Nodes {
			SampleNode(n, want[i*FrameWidth:])
		}
		if !slices.Equal(frame, want) {
			t.Fatalf("t=%v: frame %v, want %v", now, frame, want)
		}
	}
	second := func(time.Duration, []float64) { order = append(order, "second") }
	if err := c.Sample(200*time.Millisecond, check, second); err != nil {
		t.Fatal(err)
	}
	c.RunGenerator(workload.Constant(0.7), time.Second)
	wantTimes := []time.Duration{50, 200, 400, 600, 800, 1000}
	for i := range wantTimes {
		wantTimes[i] *= time.Millisecond
	}
	if !slices.Equal(times, wantTimes) {
		t.Errorf("sample times %v, want %v", times, wantTimes)
	}
	for i, s := range order {
		if want := []string{"check", "second"}[i%2]; s != want {
			t.Fatalf("sink order %v", order)
		}
	}
}

func TestSampleRejectsBadInterval(t *testing.T) {
	c := newCluster(t, 1)
	for _, every := range []time.Duration{0, -time.Second} {
		if err := c.Sample(every); !errors.Is(err, ErrSampleInterval) {
			t.Errorf("Sample(%v) = %v, want ErrSampleInterval", every, err)
		}
	}
	if len(c.pre) != 0 {
		t.Errorf("a rejected sampler was registered")
	}
}

// TestSampleStepAllocationFree backs the hot-path budget: a step that
// samples every node into a sink copying the frame out allocates
// nothing.
func TestSampleStepAllocationFree(t *testing.T) {
	c := newCluster(t, 4)
	for _, n := range c.Nodes {
		n.SetGenerator(workload.Constant(0.9))
	}
	buf := make([]float64, len(c.Nodes)*FrameWidth)
	samples := 0
	if err := c.Sample(c.Clock.Dt(), func(_ time.Duration, frame []float64) {
		copy(buf, frame)
		samples++
	}); err != nil {
		t.Fatal(err)
	}
	c.Step() // warm up
	if allocs := testing.AllocsPerRun(100, c.Step); allocs != 0 {
		t.Errorf("Step with a sampler allocates %v per step, want 0", allocs)
	}
	if samples < 100 || buf[FramePower] <= 0 {
		t.Errorf("sampler ran %d times, frame %v", samples, buf)
	}
}
