package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermctl/internal/tracefile"
)

// writeTrace records a small two-series campaign to a temp .tct file
// and returns its path.
func writeTrace(t *testing.T, mutate func(i int, v float64) float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.tct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tracefile.NewWriter(f, []tracefile.SeriesDef{
		{Name: "n0_temp", Unit: "degC"},
		{Name: "n0_fan", Unit: "percent"},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ts := time.Duration(i) * time.Second
		w.Append(0, ts, mutate(i, 40+float64(i%7)))
		w.Append(1, ts, 30)
	}
	w.Event(0, "campaign start")
	w.Event(99*time.Second, "campaign end")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func ident(_ int, v float64) float64 { return v }

func TestInfo(t *testing.T) {
	path := writeTrace(t, ident)
	var out, errb bytes.Buffer
	if code := run([]string{"info", path}, &out, &errb); code != 0 {
		t.Fatalf("info exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"n0_temp", "degC", "samples: 200", "events: 2", "time range: 0s .. 1m39s"} {
		if !strings.Contains(s, want) {
			t.Errorf("info output missing %q:\n%s", want, s)
		}
	}
}

func TestCatCSVAndWindow(t *testing.T) {
	path := writeTrace(t, ident)
	var out, errb bytes.Buffer
	if code := run([]string{"cat", "-series", "n0_temp", "-from", "10s", "-to", "12s", path}, &out, &errb); code != 0 {
		t.Fatalf("cat exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "time_s,n0_temp" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 { // 10s, 11s, 12s
		t.Fatalf("got %d rows, want 3:\n%s", len(lines)-1, out.String())
	}
	if !strings.HasPrefix(lines[1], "10.000,") {
		t.Fatalf("first row = %q", lines[1])
	}

	out.Reset()
	if code := run([]string{"cat", "-events", path}, &out, &errb); code != 0 {
		t.Fatalf("cat -events exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "campaign start") || !strings.Contains(out.String(), "campaign end") {
		t.Fatalf("events output:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"cat", "-series", "nope", path}, &out, &errb); code != 2 {
		t.Fatalf("unknown series exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "not in the file's schema") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

func TestDiff(t *testing.T) {
	a := writeTrace(t, ident)
	b := writeTrace(t, ident)
	changed := writeTrace(t, func(i int, v float64) float64 {
		if i == 42 {
			return v + 0.25
		}
		return v
	})

	var out, errb bytes.Buffer
	if code := run([]string{"diff", a, b}, &out, &errb); code != 0 {
		t.Fatalf("identical diff exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "byte-identical") {
		t.Fatalf("diff output:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"diff", a, changed}, &out, &errb); code != 1 {
		t.Fatalf("diverging diff exit %d, want 1 (%s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "DIFFER") || !strings.Contains(out.String(), "n0_temp") {
		t.Fatalf("diff output:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"diff", "-tolerance", "0.5", a, changed}, &out, &errb); code != 0 {
		t.Fatalf("tolerant diff exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "within tolerance") {
		t.Fatalf("diff output:\n%s", out.String())
	}
}

func TestUsageAndErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bogus exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"help"}, &out, &errb); code != 0 || !strings.Contains(out.String(), "usage:") {
		t.Fatalf("help exit %d:\n%s", code, out.String())
	}
	errb.Reset()
	if code := run([]string{"info", filepath.Join(t.TempDir(), "missing.tct")}, &out, &errb); code != 2 {
		t.Fatalf("missing file exit %d, want 2", code)
	}
}
