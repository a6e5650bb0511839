// Package metrics is a small, dependency-free, concurrency-safe
// metrics layer for the thermal-control stack: counters, gauges and
// fixed-bucket histograms behind a registry that renders Prometheus
// text format and structured snapshots.
//
// # The registration / update contract
//
// Metric registration (Registry.NewCounter and friends) takes the
// registry lock, allocates, and validates names — none of which belongs
// on a control or simulation hot path. Updates (Counter.Inc,
// Gauge.Set, Histogram.Observe) are single atomic operations with no
// allocation and no locks, cheap enough to live inside Cluster.Step and
// the controllers' OnStep methods. The split is enforced statically by
// the hotalloc thermlint analyzer, which reports registration's
// allocations when a Step or OnStep method reaches it: registration
// must happen at wiring time (constructors, InstrumentMetrics methods,
// main).
//
// Every instrument is nil-safe: calling Inc/Set/Observe on a nil
// pointer is a no-op, so components carry optional metric handles that
// cost one predictable branch when instrumentation is off.
//
// # Determinism
//
// Counter and gauge updates driven by the simulation are as
// deterministic as the simulation itself. Wall-clock timing (Now,
// Since, Histogram.ObserveSince) exists for latency observability only;
// it lives in this package — outside the determinism-linted simulation
// core — and must never feed back into control decisions or simulated
// state.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric at registration.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates metric types in snapshots and exposition.
type Kind string

// The metric kinds, named as Prometheus TYPE values.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing counter. The zero value is
// usable but unregistered; a nil *Counter ignores updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil *Gauge ignores
// updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetBool stores 1 for true, 0 for false.
func (g *Gauge) SetBool(b bool) {
	if b {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// Add adds delta to the gauge with a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: counts per upper bound plus a
// running sum and total count, all updated with single atomic
// operations. Bucket bounds are fixed at registration (a +Inf bucket is
// implicit), so Observe never allocates. A nil *Histogram ignores
// updates.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // Float64bits, CAS-updated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the slice is
	// cache-resident; a branchy binary search buys nothing here.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the wall-clock seconds elapsed since start.
// Latency observability only — see the package comment on determinism.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Now returns the current wall-clock instant for timing hot-path
// sections. It exists so the determinism-linted simulation packages
// can time their own execution for latency histograms without touching
// package time directly; the resulting durations are observability
// data, never simulation state.
func Now() time.Time { return time.Now() }

// Since returns the wall-clock time elapsed since start. See Now.
func Since(start time.Time) time.Duration { return time.Since(start) }

// DefBuckets are general-purpose latency buckets in seconds, spanning
// microseconds (one cluster step at small scale) to seconds.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// metric is one registered instrument.
type metric struct {
	name   string
	help   string
	kind   Kind
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// key identifies a metric uniquely: name plus the rendered label set.
func (m *metric) key() string {
	var b strings.Builder
	b.WriteString(m.name)
	for _, l := range m.labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// Registry holds a set of registered metrics. Registration is
// serialized by a mutex; registered instruments update lock-free.
// The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*metric
	all  []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]*metric{}}
}

// NewCounter registers and returns a counter. It panics on an invalid
// name or a duplicate (name, labels) pair: registration is wiring-time
// code, where a configuration error should fail loudly and
// immediately.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: KindCounter, labels: labels, counter: c})
	return c
}

// NewGauge registers and returns a gauge. Panics like NewCounter.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: KindGauge, labels: labels, gauge: g})
	return g
}

// NewHistogram registers and returns a histogram over the given bucket
// upper bounds (strictly increasing; +Inf is implicit). Panics like
// NewCounter, and additionally on unsorted bounds.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s: bounds not strictly increasing at %v", name, bounds[i]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(h.bounds))
	r.register(&metric{name: name, help: help, kind: KindHistogram, labels: labels, hist: h})
	return h
}

func (r *Registry) register(m *metric) {
	if err := checkName(m.name); err != nil {
		panic(fmt.Sprintf("metrics: %v", err))
	}
	for _, l := range m.labels {
		if err := CheckLabelName(l.Key); err != nil {
			panic(fmt.Sprintf("metrics: %s: %v", m.name, err))
		}
	}
	// Normalize label order so {a=1,b=2} and {b=2,a=1} collide.
	sort.SliceStable(m.labels, func(i, j int) bool { return m.labels[i].Key < m.labels[j].Key })
	r.mu.Lock()
	defer r.mu.Unlock()
	id := m.key()
	if prior, ok := r.byID[id]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %s (kind %s)", prior.name, prior.kind))
	}
	for _, prior := range r.all {
		if prior.name == m.name && prior.kind != m.kind {
			panic(fmt.Sprintf("metrics: %s registered as both %s and %s", m.name, prior.kind, m.kind))
		}
	}
	r.byID[id] = m
	r.all = append(r.all, m)
}

// checkName validates a Prometheus metric name.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// CheckLabelName validates a Prometheus label name: a letter or
// underscore, then letters, digits and underscores. Registering a
// metric with a label that fails it panics, so callers that take label
// names from input check them first.
func CheckLabelName(key string) error {
	if key == "" {
		return fmt.Errorf("empty label name")
	}
	for i, c := range key {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid label name %q", key)
		}
	}
	return nil
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound;
	// math.Inf(1) for the +Inf bucket.
	UpperBound float64
	// CumulativeCount counts observations ≤ UpperBound.
	CumulativeCount uint64
}

// Sample is one metric's point-in-time state.
type Sample struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label

	// Value carries the counter count or gauge level.
	Value float64
	// Count, Sum and Buckets are set for histograms only.
	Count   uint64
	Sum     float64
	Buckets []BucketCount
}

// Snapshot returns every registered metric's current state, sorted by
// name then label set, so renderings are deterministic.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	ms := append([]*metric(nil), r.all...)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].key() < ms[j].key()
	})
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Help: m.help, Kind: m.kind, Labels: append([]Label(nil), m.labels...)}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter.Value())
		case KindGauge:
			s.Value = m.gauge.Value()
		case KindHistogram:
			h := m.hist
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				s.Buckets = append(s.Buckets, BucketCount{UpperBound: b, CumulativeCount: cum})
			}
			cum += h.inf.Load()
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: math.Inf(1), CumulativeCount: cum})
			// The per-bucket loads above and Count/Sum below are not one
			// atomic snapshot; under concurrent observation the cumulative
			// count may trail Count by in-flight observations, which
			// Prometheus semantics tolerate.
			s.Count = h.Count()
			s.Sum = h.Sum()
		}
		out = append(out, s)
	}
	return out
}
