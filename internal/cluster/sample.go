package cluster

import (
	"errors"
	"time"

	"thermctl/internal/node"
)

// Frame layout: FrameWidth values per node in node order, node i's
// block starting at i*FrameWidth; the offsets index within a block.
const (
	FrameTemp  = iota // sensor reading, °C
	FrameDuty         // fan duty, percent
	FrameFreq         // CPU frequency, GHz
	FramePower        // total node power, W
	FrameWidth
)

// FrameFields names each per-node frame value and its unit, in offset
// order: the one definition every sampled series name ("n3_temp") uses.
var FrameFields = [FrameWidth]struct{ Name, Unit string }{
	{"temp", "degC"}, {"duty", "percent"}, {"freq", "GHz"}, {"power", "W"},
}

// Sink consumes one sample frame taken at now; the frame is reused, so
// a sink copies what it keeps. Write sinks as methods: hotalloc roots
// them by this signature but cannot follow a func literal.
type Sink func(now time.Duration, frame []float64)

// ErrSampleInterval rejects an interval <= 0, which would sample every
// step (next never advances past now).
var ErrSampleInterval = errors.New("cluster: sample interval must be positive")

// SampleNode writes n's observables into dst[0:FrameWidth].
func SampleNode(n *node.Node, dst []float64) {
	dst[FrameTemp] = n.Sensor.Read()
	dst[FrameDuty] = n.Fan.Duty()
	dst[FrameFreq] = n.CPU.FreqGHz()
	dst[FramePower] = n.Power().Total()
}

// sampler is the cluster's one observer of node state.
type sampler struct {
	c     *Cluster
	every time.Duration
	next  time.Duration
	frame []float64
	sinks []Sink
	// fill samples node i into its frame block, wired once in Sample
	// so a sample dispatches it without allocating.
	fill func(i int)
}

// Sample registers a sampler with AddController, so it runs in the
// current serial phase. At the first step after attachment and then
// once per interval it fills one frame from every node at one step
// boundary and passes it to sinks in order. The fill runs on the step
// pool (inline without one): each node's block is written by the
// participant that owns the node, and SampleNode touches only that
// node, so the frame is identical at every worker count. The sinks run
// serially, in order, on the complete frame.
func (c *Cluster) Sample(every time.Duration, sinks ...Sink) error {
	if every <= 0 {
		return ErrSampleInterval
	}
	s := &sampler{c: c, every: every, next: c.Clock.Now(),
		frame: make([]float64, len(c.Nodes)*FrameWidth), sinks: sinks}
	s.fill = func(i int) { SampleNode(c.Nodes[i], s.frame[i*FrameWidth:]) }
	c.AddController(s)
	return nil
}

// OnStep implements Controller.
func (s *sampler) OnStep(now time.Duration) {
	if now < s.next {
		return
	}
	s.next += s.every
	s.c.advanceNodes(s.fill)
	for _, sink := range s.sinks {
		sink(now, s.frame)
	}
}
