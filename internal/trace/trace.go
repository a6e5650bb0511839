// Package trace records and summarizes simulation time series: the
// temperature, fan duty, frequency and power curves that the paper's
// figures plot, plus the summary statistics its text quotes (averages,
// stabilization time).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point is one sample of one series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named time series.
type Series struct {
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	//thermlint:allow hotalloc -- a recorder's whole job is to accumulate samples; growth is amortized O(1)
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Mean returns the arithmetic mean, or NaN for an empty series.
func (s *Series) Mean() float64 { return Mean(s.Values()) }

// Max returns the largest sample value, or -Inf for an empty series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Min returns the smallest sample value, or +Inf for an empty series.
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, p := range s.Points {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Last returns the final sample value, or NaN for an empty series.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	return s.Points[len(s.Points)-1].V
}

// MeanAfter returns the mean of samples at or after t — the steady-state
// average once transients have passed.
func (s *Series) MeanAfter(t time.Duration) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.T >= t {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// StabilizationTime returns the time of the first sample after which
// every remaining sample stays within ±band of the series' final value.
// It reports how quickly a controller settles — the comparison the
// paper's Figure 6 makes between dynamic and static fan control. It
// returns the last sample's time if the series never settles earlier,
// and 0 for an empty series.
func (s *Series) StabilizationTime(band float64) time.Duration {
	if len(s.Points) == 0 {
		return 0
	}
	final := s.Last()
	// Walk backwards to find the last sample outside the band.
	for i := len(s.Points) - 1; i >= 0; i-- {
		if math.Abs(s.Points[i].V-final) > band {
			if i == len(s.Points)-1 {
				return s.Points[i].T
			}
			return s.Points[i+1].T
		}
	}
	return s.Points[0].T
}

// Mean returns the arithmetic mean of vs, or NaN if empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Recorder collects multiple named series with a shared sampling
// schedule. Record, Track, Names, Series and WriteCSV serialize on one
// mutex, so a recorder may be read from one goroutine while another
// records into it. Every producer in this module is its recorder's only
// writer (a run's sampler, or a command decoding a file), so the lock
// is uncontended; it keeps the type safe to share rather than relying on
// each caller to confine it. Mutating a *Series obtained from Series
// while others record is the caller's responsibility to serialize.
type Recorder struct {
	mu     sync.Mutex
	order  []string
	series map[string]*Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Record appends a sample to the named series, creating it on first use.
func (r *Recorder) Record(name string, t time.Duration, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.track(name).Add(t, v)
}

// Track returns the named series, creating it (in first-recorded
// order, as Record would) if it does not exist yet. A producer that
// appends to a fixed set of series registers them once with Track and
// then calls Series.Add directly, skipping Record's lock and lookup per
// value; it must then be the recorder's only writer while it appends.
func (r *Recorder) Track(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.track(name)
}

// track is Track under r.mu.
func (r *Recorder) track(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// Series returns the named series, or nil if never recorded.
func (r *Recorder) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[name]
}

// Names returns the series names in first-recorded order.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// ReadCSV parses the format WriteCSV emits — a "time_s" column followed
// by one column per series; empty cells are skipped — and returns a
// recorder holding the series. It is the ingestion path for offline
// analysis (e.g. the hotspot profiler over an exported run).
func ReadCSV(r io.Reader) (*Recorder, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return nil, fmt.Errorf("trace: empty CSV")
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	if len(header) < 2 || header[0] != "time_s" {
		return nil, fmt.Errorf("trace: malformed header %q", sc.Text())
	}
	names := header[1:]
	rec := NewRecorder()
	line := 1
	for sc.Scan() {
		line++
		row := strings.Split(strings.TrimSpace(sc.Text()), ",")
		if len(row) != len(header) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(row), len(header))
		}
		ts, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp %q", line, row[0])
		}
		t := time.Duration(ts * float64(time.Second))
		for i, cell := range row[1:] {
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad value %q", line, cell)
			}
			rec.Record(names[i], t, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return rec, nil
}

// WriteCSV emits all series as CSV: a time column (seconds) followed by
// one column per series, rows joined on exact timestamps. Missing
// values are left empty. The recorder is locked for the duration: the
// snapshot is consistent even while probes keep recording.
func (r *Recorder) WriteCSV(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	// Collect the union of timestamps.
	stamps := map[time.Duration]bool{}
	for _, n := range names {
		for _, p := range r.series[n].Points {
			stamps[p.T] = true
		}
	}
	ts := make([]time.Duration, 0, len(stamps))
	for t := range stamps {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })

	// Index each series by timestamp.
	idx := make(map[string]map[time.Duration]float64, len(names))
	for _, n := range names {
		m := make(map[time.Duration]float64, r.series[n].Len())
		for _, p := range r.series[n].Points {
			m[p.T] = p.V
		}
		idx[n] = m
	}

	if _, err := fmt.Fprintf(w, "time_s,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	for _, t := range ts {
		row := make([]string, 0, len(names)+1)
		row = append(row, fmt.Sprintf("%.3f", t.Seconds()))
		for _, n := range names {
			if v, ok := idx[n][t]; ok {
				row = append(row, fmt.Sprintf("%.4f", v))
			} else {
				row = append(row, "")
			}
		}
		if _, err := io.WriteString(w, strings.Join(row, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}
