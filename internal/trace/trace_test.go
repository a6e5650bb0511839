package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{1, 2, 3, 4} {
		s.Add(sec(float64(i)), v)
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %v, want 2.5", s.Mean())
	}
	if s.Max() != 4 || s.Min() != 1 || s.Last() != 4 {
		t.Errorf("Max/Min/Last = %v/%v/%v", s.Max(), s.Min(), s.Last())
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Last()) {
		t.Error("empty series Mean/Last should be NaN")
	}
	if !math.IsInf(s.Max(), -1) || !math.IsInf(s.Min(), 1) {
		t.Error("empty series Max/Min should be ∓Inf")
	}
	if s.StabilizationTime(1) != 0 {
		t.Error("empty series StabilizationTime should be 0")
	}
}

func TestMeanAfter(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		v := 0.0
		if i >= 5 {
			v = 10
		}
		s.Add(sec(float64(i)), v)
	}
	if got := s.MeanAfter(sec(5)); got != 10 {
		t.Errorf("MeanAfter(5s) = %v, want 10", got)
	}
	if !math.IsNaN(s.MeanAfter(sec(100))) {
		t.Error("MeanAfter beyond the series should be NaN")
	}
}

func TestStabilizationTime(t *testing.T) {
	var s Series
	// Ramp for 10 s then flat at 50 for 10 s.
	for i := 0; i <= 20; i++ {
		v := 50.0
		if i < 10 {
			v = float64(i) * 5
		}
		s.Add(sec(float64(i)), v)
	}
	got := s.StabilizationTime(1)
	if got != sec(10) {
		t.Errorf("StabilizationTime = %v, want 10s", got)
	}
}

func TestStabilizationNeverSettles(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(sec(float64(i)), float64(i*10))
	}
	// Only the final sample is within the band of itself, so the series
	// "settles" at its very last timestamp.
	if got := s.StabilizationTime(1); got != sec(9) {
		t.Errorf("StabilizationTime = %v, want 9s", got)
	}
}

func TestStabilizationFlatSeries(t *testing.T) {
	var s Series
	for i := 0; i < 5; i++ {
		s.Add(sec(float64(i)), 42)
	}
	if got := s.StabilizationTime(0.5); got != 0 {
		t.Errorf("flat series stabilization = %v, want 0", got)
	}
}

func TestMean(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(vs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty Mean should be NaN")
	}
}

func TestRecorderSeriesOrder(t *testing.T) {
	r := NewRecorder()
	r.Record("temp", 0, 40)
	r.Record("duty", 0, 10)
	r.Record("temp", sec(1), 41)
	names := r.Names()
	if len(names) != 2 || names[0] != "temp" || names[1] != "duty" {
		t.Errorf("Names = %v", names)
	}
	if r.Series("temp").Len() != 2 {
		t.Error("temp series wrong length")
	}
	if r.Series("missing") != nil {
		t.Error("missing series should be nil")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 10; i++ {
		r.Record("temp", sec(float64(i)*0.25), 40+float64(i))
		if i%2 == 0 {
			r.Record("duty", sec(float64(i)*0.25), float64(10*i))
		}
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	temp := back.Series("temp")
	if temp == nil || temp.Len() != 10 {
		t.Fatalf("temp round trip: %+v", temp)
	}
	if temp.Points[3].V != 43 || temp.Points[3].T != sec(0.75) {
		t.Errorf("sample 3: %+v", temp.Points[3])
	}
	duty := back.Series("duty")
	if duty == nil || duty.Len() != 5 {
		t.Fatalf("duty round trip (sparse column): %+v", duty)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"notheader,a\n1,2\n",
		"time_s\n",
		"time_s,a\nx,1\n",
		"time_s,a\n1,notnum\n",
		"time_s,a\n1,2,3\n",
	}
	for _, body := range cases {
		if _, err := ReadCSV(strings.NewReader(body)); err == nil {
			t.Errorf("malformed CSV accepted: %q", body)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Record("a", 0, 1)
	r.Record("b", 0, 2)
	r.Record("a", sec(1), 3)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "time_s,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.000,1.0000,2.0000") {
		t.Errorf("row 0 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "1.000,3.0000,") || !strings.HasSuffix(lines[2], ",") {
		t.Errorf("row 1 = %q (missing b value should be empty)", lines[2])
	}
}

func TestTrackSharesSeriesAndOrderWithRecord(t *testing.T) {
	rec := NewRecorder()
	a := rec.Track("a")
	rec.Record("b", 0, 1)
	if rec.Track("a") != a {
		t.Fatal("Track created a second series for one name")
	}
	a.Add(time.Second, 2)
	rec.Record("a", 2*time.Second, 3)
	if got := rec.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names = %v, want [a b] (first-tracked order)", got)
	}
	if s := rec.Series("a"); s != a || s.Len() != 2 || s.Points[1].V != 3 {
		t.Fatalf("series a = %+v, want the tracked series holding both samples", s)
	}
}
