package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads -compare prints match the ones the acceptance rule computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(j int) float64 { // position j/4 of n+1
		m := j * (n + 1)
		k := min(max(m/4, 1), n-1)
		return s[k-1] + (s[k]-s[k-1])*float64(m-4*k)/4
	}
	return at(1), at(3)
}

// repeatSetup runs rep at least five times and for at least floor (at
// most 200 times), so that a set-up of a millisecond or less still
// yields a steady median, and returns each run's host time in seconds.
func repeatSetup(floor time.Duration, rep func() (time.Duration, error)) ([]float64, error) {
	var reps []float64
	var total time.Duration
	for len(reps) < 5 || (total < floor && len(reps) < 200) {
		d, err := rep()
		if err != nil {
			return nil, err
		}
		total += d
		reps = append(reps, d.Seconds())
	}
	return reps, nil
}

// window is one slice of a child's measuring time: the items it
// completed, the host and CPU time it spent, and the latency of each
// request in it in ms.
type window struct {
	items     float64
	wall, cpu time.Duration
	lat       []float64
}

// windowSize is the host time a window spans. The end-to-end metrics
// are medians over windows: on a shared host, a neighbour's burst
// then costs a few windows instead of shifting a whole run.
const windowSize = 500 * time.Millisecond

// windowed groups consecutive parts into windows of at least size host
// time; a short remainder joins the last window.
func windowed(parts []window, size time.Duration) []window {
	var out []window
	var cur window
	for _, p := range parts {
		cur.add(p)
		if cur.wall >= size {
			out = append(out, cur)
			cur = window{}
		}
	}
	switch {
	case cur.items == 0:
	case len(out) == 0:
		out = append(out, cur)
	default:
		out[len(out)-1].add(cur)
	}
	return out
}

func (w *window) add(p window) {
	w.items += p.items
	w.wall += p.wall
	w.cpu += p.cpu
	w.lat = append(w.lat, p.lat...)
}

// windowMetrics are the end-to-end metrics of each window.
func windowMetrics(ws []window) []map[string]float64 {
	var out []map[string]float64
	for _, w := range ws {
		if w.items == 0 {
			continue
		}
		out = append(out, map[string]float64{
			"items_per_s":     w.items / w.wall.Seconds(),
			"cpu_ns_per_item": float64(w.cpu) / w.items,
			"latency_p50_ms":  quantile(w.lat, 0.5),
			"latency_p90_ms":  quantile(w.lat, 0.9),
		})
	}
	return out
}

// agg is one layer's in-memory aggregate: how many samples, their sum,
// and the median and 90th percentile of one sample.
type agg struct {
	Count int64   `json:"count"`
	Total float64 `json:"total"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
}

// aggOf summarizes samples (sorted in place).
func aggOf(xs []float64) agg {
	a := agg{Count: int64(len(xs))}
	for _, x := range xs {
		a.Total += x
	}
	a.P50 = quantile(xs, 0.5)
	a.P90 = quantile(xs, 0.9)
	return a
}

// durations converts step-timer samples to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// digest hashes simulation outputs bit-exactly.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{h: fnv.New64a()} }

func (d digest) float(v float64) {
	d.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}

func (d digest) bytes(p []byte) { d.h.Write(p) }

func (d digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// digestOf hashes one output document.
func digestOf(p []byte) string {
	d := newDigest()
	d.bytes(p)
	return d.String()
}

// scale returns xs multiplied by k.
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
