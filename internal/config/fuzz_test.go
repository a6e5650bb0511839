package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thermctl/internal/workload"
)

// FuzzReadScenario drives ReadScenarioDir against a scenario library
// holding the gallery's fleet-base.json, a two-file extends cycle and
// a chain one link deeper than maxExtendsDepth. Properties: it never
// panics; a document extending into the cycle or the deep chain is
// rejected; every millisecond field of an accepted document converts to
// a non-negative Duration; and a document that parses re-marshals and
// parses again to an equal Scenario. The seeds are the gallery's
// scenario files.
func FuzzReadScenario(f *testing.F) {
	gallery := filepath.Join("..", "..", "examples")
	files, err := filepath.Glob(filepath.Join(gallery, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no gallery scenarios to seed from")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"extends": "loop1.json"}`))
	f.Add([]byte(`{"groups": [], "metrics": {"enabled": true, "labels": {}}, "control": {}}`))
	f.Add([]byte(`{"extends": "./deep0.json", "seed": 3}`))
	f.Add([]byte(`{"extends": "deep1.json", "name": "shallow enough"}`))
	// Node counts past MaxNodes, flat and per group: once accepted,
	// they panicked or exhausted memory in Build.
	f.Add([]byte(`{"nodes": 1000000000000000}`))
	f.Add([]byte(`{"groups": [{"name": "a", "nodes": 4611686018427387904}, {"name": "b", "nodes": 4611686018427387904}, {"name": "c", "nodes": 4611686018427387904}, {"name": "d", "nodes": 4611686018427387904}]}`))
	// Millisecond fields past workload.MaxMS: once accepted, they
	// wrapped to a wrong or negative Duration.
	for _, spec := range overflowingMS {
		f.Add([]byte(spec))
	}

	dir := f.TempDir()
	write := func(name string, body []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	base, err := os.ReadFile(filepath.Join(gallery, "fleet-base.json"))
	if err != nil {
		f.Fatal(err)
	}
	write("fleet-base.json", base)
	write("loop1.json", []byte(`{"extends": "loop2.json", "seed": 1}`))
	write("loop2.json", []byte(`{"extends": "loop1.json", "seed": 2}`))
	// deep0 → deep1 → … → deep<max>: a document extending deep0 puts
	// its last link at depth maxExtendsDepth, one past the bound.
	for i := 0; i < maxExtendsDepth; i++ {
		write(fmt.Sprintf("deep%d.json", i), []byte(fmt.Sprintf(`{"extends": "deep%d.json"}`, i+1)))
	}
	write(fmt.Sprintf("deep%d.json", maxExtendsDepth), []byte(`{"nodes": 1, "control": {}}`))
	mustFail := map[string]bool{
		filepath.Join(dir, "loop1.json"): true,
		filepath.Join(dir, "loop2.json"): true,
		filepath.Join(dir, "deep0.json"): true,
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadScenarioDir(bytes.NewReader(data), dir)
		// The document's own extends, read the way resolveExtends reads
		// it: the first JSON value, as an object.
		var head map[string]any
		if json.NewDecoder(bytes.NewReader(data)).Decode(&head) == nil {
			if name, ok := head["extends"].(string); ok && mustFail[filepath.Join(dir, name)] && err == nil {
				t.Fatalf("extends %q (a cycle or an over-deep chain) accepted", name)
			}
		}
		if err != nil {
			return
		}
		for _, v := range msFields(&s) {
			if d := time.Duration(v) * time.Millisecond; d < 0 || int64(d/time.Millisecond) != int64(v) {
				t.Fatalf("accepted millisecond field %d converts to %v", v, d)
			}
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario fails marshal: %v", err)
		}
		again, err := ReadScenarioDir(bytes.NewReader(out), "")
		if err != nil {
			t.Fatalf("re-marshaled scenario rejected: %v\n%s", err, out)
		}
		// Equal as documents: an empty list or map and an absent one
		// mean the same and marshal the same, though reflect.DeepEqual
		// tells a nil slice from an empty one.
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("reparsed scenario fails marshal: %v", err)
		}
		if !bytes.Equal(out2, out) {
			t.Fatalf("round trip changed the scenario:\n first: %s\nsecond: %s", out, out2)
		}
	})
}

// msFields lists every millisecond field of s: the chaos horizon, the
// control sampling period, each group's fan time constant, and every
// field of each workload spec, sequence segments included.
func msFields(s *Scenario) []int {
	out := []int{s.Chaos.HorizonMS, s.Control.Tuning.SampleMS}
	var spec func(w *workload.Spec)
	spec = func(w *workload.Spec) {
		if w == nil {
			return
		}
		out = append(out, w.AtMS, w.StartMS, w.OverMS, w.PeriodMS, w.HoldMS, w.PhaseMS, w.RiseMS, w.DecayMS)
		for i := range w.Segments {
			out = append(out, w.Segments[i].ForMS)
			spec(&w.Segments[i].Spec)
		}
	}
	spec(s.Workload)
	for i := range s.Groups {
		out = append(out, s.Groups[i].Hardware.FanTimeConstMS)
		spec(s.Groups[i].Workload)
	}
	return out
}
