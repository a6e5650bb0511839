package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"testing"
)

// withWorkers runs f at each worker count and restores Workers after.
func withWorkers(t *testing.T, counts []int, f func(t *testing.T, w int)) {
	defer func(w int) { Workers = w }(Workers)
	for _, w := range counts {
		Workers = w
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) { f(t, w) })
	}
}

func TestSweepReturnsResultsInIndexOrder(t *testing.T) {
	withWorkers(t, []int{1, 2, 4}, func(t *testing.T, w int) {
		const n = 9
		last := make(chan struct{})
		got, err := sweep(n, func(i int) (int, error) {
			// With more than one worker, run 0 finishes after run n-1,
			// so completion order differs from index order.
			if w > 1 && i == 0 {
				<-last
			}
			if i == n-1 {
				close(last)
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("got %d results, want %d", len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("result %d = %d, want %d", i, v, i*i)
			}
		}
	})
}

func TestSweepReturnsLowestIndexError(t *testing.T) {
	withWorkers(t, []int{1, 2, 4}, func(t *testing.T, w int) {
		errLow, errHigh := errors.New("run 3 failed"), errors.New("run 6 failed")
		highDone := make(chan struct{})
		_, err := sweep(8, func(i int) (int, error) {
			switch i {
			case 3:
				// With more than one worker, the higher index fails
				// first in time; its error must still lose.
				if w > 1 {
					<-highDone
				}
				return 0, errLow
			case 6:
				close(highDone)
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("error %v, want %v", err, errLow)
		}
	})
}

func TestSweepOfNothing(t *testing.T) {
	withWorkers(t, []int{1, 4}, func(t *testing.T, _ int) {
		got, err := sweep(0, func(i int) (int, error) {
			t.Errorf("run(%d) called for n = 0", i)
			return 0, nil
		})
		if err != nil || len(got) != 0 {
			t.Errorf("sweep(0) = %v, %v; want an empty result", got, err)
		}
	})
}

func TestSweepSerialRunsInline(t *testing.T) {
	withWorkers(t, []int{1}, func(t *testing.T, _ int) {
		caller := goroutineID()
		var order []int
		if _, err := sweep(5, func(i int) (int, error) {
			if id := goroutineID(); id != caller {
				t.Errorf("run(%d) on goroutine %d, want the caller's %d", i, id, caller)
			}
			order = append(order, i)
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Errorf("runs happened in order %v, want [0 1 2 3 4]", order)
		}
	})
}

// goroutineID parses the current goroutine's id from its stack header,
// "goroutine 7 [running]:".
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestStudiesMatchAcrossWorkers runs the studies the generated report
// leaves out (the report's golden test covers the rest) at one and two
// workers. Their printed results must match, and under -race this
// checks their concurrent runs for races.
func TestStudiesMatchAcrossWorkers(t *testing.T) {
	studies := []struct {
		name string
		run  func(seed uint64) (fmt.Stringer, error)
	}{
		{"ablation", func(s uint64) (fmt.Stringer, error) { return Ablation(s) }},
		{"sleepstates", func(s uint64) (fmt.Stringer, error) { return SleepStates(s) }},
		{"loadshapes", func(s uint64) (fmt.Stringer, error) { return LoadShapes(s) }},
	}
	printed := map[string]string{}
	withWorkers(t, []int{1, 2}, func(t *testing.T, w int) {
		for _, s := range studies {
			r, err := s.run(Seed)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if w == 1 {
				printed[s.name] = r.String()
			} else if got := r.String(); got != printed[s.name] {
				t.Errorf("%s at %d workers prints\n%s\nwant (1 worker)\n%s", s.name, w, got, printed[s.name])
			}
		}
	})
}
