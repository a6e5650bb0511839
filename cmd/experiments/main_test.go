package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownOnlyNameListsValidNames(t *testing.T) {
	err := run([]string{"-only", "nosuch"}, io.Discard, io.Discard)
	if !errors.As(err, new(usageError)) {
		t.Fatalf("-only nosuch: error %v, want a usage error", err)
	}
	if !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("error %q does not name the unknown experiment", err)
	}
	for _, e := range table {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error %q does not list %q", err, e.Name)
		}
	}
}

func TestEveryTableNameIsAccepted(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range table {
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
		got, err := pick(" " + strings.ToUpper(e.Name) + " ")
		if err != nil {
			t.Errorf("-only %s: %v", e.Name, err)
			continue
		}
		if len(got) != 1 || got[0].Name != e.Name {
			t.Errorf("-only %s picked %v", e.Name, names(got))
		}
	}
	all, err := pick(strings.Join(names(table), ","))
	if err != nil || len(all) != len(table) {
		t.Errorf("-only with every name: %d picked, err %v; want %d", len(all), err, len(table))
	}
}

func TestOnlyFig2WritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-only", "fig2", "-csv", dir, "-workers", "1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fig2.csv")
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "time_s,temp\n") {
		t.Errorf("fig2.csv starts %q, want a time_s,temp header", body[:min(len(body), 40)])
	}
	if !strings.Contains(out.String(), "Figure 2") || !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("stdout does not report Figure 2 and the CSV:\n%s", out.String())
	}
}

func TestUsageErrorReportedOnce(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the error, which stderr must carry exactly once
	}{
		// The flag set prints this one itself, with the usage.
		{[]string{"-nosuchflag"}, "flag provided but not defined: -nosuchflag\n"},
		{[]string{"-workers", "0"}, "experiments: -workers 0: need at least one worker\n"},
	} {
		var stderr strings.Builder
		if status := exitStatus(run(tc.args, io.Discard, &stderr), &stderr); status != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, status)
		}
		if n := strings.Count(stderr.String(), tc.want); n != 1 {
			t.Errorf("%v: stderr carries %q %d times, want once:\n%s", tc.args, tc.want, n, stderr.String())
		}
	}
}
