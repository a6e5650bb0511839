package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermctl/internal/tracefile"
)

func TestSummarizeTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.tct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tracefile.NewWriter(f, []tracefile.SeriesDef{
		{Name: "temp", Unit: "degC"},
		{Name: "quiet", Unit: "W"},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		w.Append(0, time.Duration(i)*time.Second, 40+float64(i))
	}
	w.Event(30*time.Second, "midpoint")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sum, err := SummarizeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 60 || sum.Events != 1 || sum.Incomplete != "" {
		t.Fatalf("summary = %+v", sum)
	}
	ts := sum.Series[0]
	if ts.Count != 60 || ts.Min != 40 || ts.Max != 99 || ts.Last != 99 {
		t.Fatalf("temp series = %+v", ts)
	}
	if ts.Mean < 69 || ts.Mean > 70 {
		t.Fatalf("temp mean = %v", ts.Mean)
	}
	// A declared-but-unsampled series must render without blowing up.
	if sum.Series[1].Count != 0 {
		t.Fatalf("quiet series = %+v", sum.Series[1])
	}
	var buf bytes.Buffer
	if err := sum.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"samples: 60", "temp", "degC", "quiet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}

	// A windowed digest sees only its slice.
	r, closer, err := tracefile.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	wsum, err := SummarizeTrace(r, tracefile.Window{From: 10 * time.Second, To: 19 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if wsum.Series[0].Count != 10 || wsum.Series[0].Min != 50 || wsum.Series[0].Max != 59 {
		t.Fatalf("windowed temp series = %+v", wsum.Series[0])
	}
}
