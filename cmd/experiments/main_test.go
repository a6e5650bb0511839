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
	err := run([]string{"-only", "nosuch"}, io.Discard)
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
	if err := run([]string{"-only", "fig2", "-csv", dir, "-workers", "1"}, &out); err != nil {
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
