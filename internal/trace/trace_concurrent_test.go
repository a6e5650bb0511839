package trace

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentRecord hammers Record from many goroutines — the shape
// of an out-of-band BMC poller sampling while the in-band loop records.
// Under -race this fails loudly if Recorder loses its lock discipline.
func TestConcurrentRecord(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
	)
	rec := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("series%d", g%4) // contend: two goroutines per series
			for i := 0; i < perG; i++ {
				rec.Record(name, time.Duration(i)*time.Second, float64(g*perG+i))
			}
		}(g)
	}
	wg.Wait()

	names := rec.Names()
	if len(names) != 4 {
		t.Fatalf("got %d series, want 4: %v", len(names), names)
	}
	total := 0
	for _, n := range names {
		s := rec.Series(n)
		if s == nil {
			t.Fatalf("series %q missing", n)
		}
		total += s.Len()
	}
	if want := goroutines * perG; total != want {
		t.Fatalf("recorded %d samples total, want %d", total, want)
	}
}

// TestConcurrentRecordAndSnapshot checks that WriteCSV snapshots taken
// mid-flight are internally consistent, even while writers keep going:
// writers are appending as each snapshot starts and contend for its
// lock until it ends, every emitted row parses, and each series holds
// between the records written before the snapshot began and those its
// writer could add before the lock was taken. Writers are paced by the
// snapshots (batch records each per snapshot), which keeps memory
// bounded however slow the snapshots run.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	const (
		writers = 4
		snaps   = 20
		batch   = 250
	)
	rec := NewRecorder()
	// budget is the record count each writer may reach; entered counts
	// Record calls begun, recorded those returned.
	var budget, entered, recorded atomic.Int64
	budget.Store(batch)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g)
			for i := int64(0); ; i++ {
				for i >= budget.Load() {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
				entered.Add(1)
				rec.Record(name, time.Duration(i)*time.Millisecond, float64(i))
				recorded.Add(1)
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for snap := 0; snap < snaps; snap++ {
		have := budget.Load()
		for recorded.Load() < writers*have {
			runtime.Gosched()
		}
		// Half the next batch is released before the snapshot, so
		// writers are appending as it starts. The other half is
		// released by its first write, under the recorder's lock, which
		// then waits until a writer enters Record and blocks on that
		// lock (unless every writer already waits there).
		budget.Add(batch / 2)
		w := &hookWriter{hook: func() {
			before := entered.Load()
			budget.Add(batch / 2)
			for entered.Load() == before && entered.Load()-recorded.Load() < writers {
				runtime.Gosched()
			}
		}}
		if err := rec.WriteCSV(w); err != nil {
			t.Fatalf("snapshot %d: WriteCSV: %v", snap, err)
		}
		back, err := ReadCSV(&w.buf)
		if err != nil {
			t.Fatalf("snapshot %d not parseable: %v", snap, err)
		}
		if names := back.Names(); len(names) != writers {
			t.Fatalf("snapshot %d: %d series, want %d", snap, len(names), writers)
		}
		for _, name := range back.Names() {
			if n := int64(back.Series(name).Len()); n < have || n > have+batch/2 {
				t.Fatalf("snapshot %d: %s has %d points, want %d..%d", snap, name, n, have, have+batch/2)
			}
		}
	}
}

// hookWriter buffers writes and calls hook before the first one.
type hookWriter struct {
	buf  bytes.Buffer
	hook func()
}

func (w *hookWriter) Write(p []byte) (int, error) {
	if w.hook != nil {
		w.hook()
		w.hook = nil
	}
	return w.buf.Write(p)
}

// TestCSVRoundTripSparse round-trips a recorder whose series share no
// timestamps, so every row has empty cells; ReadCSV must skip them
// without inventing samples, and order/values must survive exactly.
func TestCSVRoundTripSparse(t *testing.T) {
	rec := NewRecorder()
	// Deliberately record "zeta" first: column order is first-recorded,
	// not alphabetical, and must survive the round trip.
	rec.Record("zeta", 1*time.Second, -3.25)
	rec.Record("alpha", 2*time.Second, 0)
	rec.Record("zeta", 3*time.Second, 101.5)
	rec.Record("alpha", 4*time.Second, 42.0625)

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Every data row must contain exactly one empty cell (the series
	// that has no sample at that timestamp).
	for i, row := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		empties := 0
		for _, cell := range strings.Split(row, ",") {
			if cell == "" {
				empties++
			}
		}
		if empties != 1 {
			t.Errorf("row %d %q has %d empty cells, want 1", i, row, empties)
		}
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Names(), []string{"zeta", "alpha"}; !equalStrings(got, want) {
		t.Fatalf("names after round trip = %v, want %v", got, want)
	}
	checks := []struct {
		name string
		want []Point
	}{
		{"zeta", []Point{{1 * time.Second, -3.25}, {3 * time.Second, 101.5}}},
		{"alpha", []Point{{2 * time.Second, 0}, {4 * time.Second, 42.0625}}},
	}
	for _, c := range checks {
		s := back.Series(c.name)
		if s == nil {
			t.Fatalf("series %q lost in round trip", c.name)
		}
		if s.Len() != len(c.want) {
			t.Fatalf("%s: %d points after round trip, want %d", c.name, s.Len(), len(c.want))
		}
		for i, p := range s.Points {
			if p.T != c.want[i].T || math.Abs(p.V-c.want[i].V) > 1e-9 {
				t.Errorf("%s[%d] = {%v %v}, want {%v %v}", c.name, i, p.T, p.V, c.want[i].T, c.want[i].V)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
