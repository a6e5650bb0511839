package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"thermctl/internal/experiment"
)

// TestSmoke runs every workload in-process at smoke scale in traced
// mode, which runs one untraced and one traced child, and checks that
// every metric BENCHMARK.json names is reported, finite and well
// named, and that no check failed: among them, that the traced child's
// outputs equal the untraced child's.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark reports %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			p := params{Workload: w.Name, Seed: experiment.Seed, Seconds: 0.05, Smoke: true, Dir: t.TempDir()}
			rec, err := runner{inProcess: true}.measure(p, true)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || len(rec.Problems) > 0 {
				t.Errorf("%d of %d checks failed: %v", rec.Failed, rec.Attempted, rec.Problems)
			}
			untraced := rec.Epochs[0]
			sum := rec.summary()
			for _, m := range spec.EndToEnd {
				if v, ok := untraced[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("end-to-end %s = %v (reported %v)", m.Name, v, ok)
				}
			}
			for _, m := range spec.PerLayer {
				got, ok := sum.Metrics[m.Name]
				if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != m.Unit || !name.MatchString(m.Name) {
					t.Errorf("per-layer %s = %+v (reported %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(sum.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(sum.Metrics), len(spec.PerLayer))
			}
		})
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// the spread the acceptance rule uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{[]float64{100, 100, 100, 101, 99, 100, 101, 99, 100, 100}, "unchanged"},
		{[]float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, "worse"},
	} {
		if _, v := verdict(parent, c.change, true, 0.1); v != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.change, v, c.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if _, v := verdict(noisy, parent, true, 0.1); v != "unresolved" {
		t.Errorf("verdict against a parent spread wider than the bound = %s, want unresolved", v)
	}
}
