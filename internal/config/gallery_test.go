package config

import (
	"path/filepath"
	"testing"
)

// TestScenarioGallery validates every scenario document shipped under
// examples/: each must load (resolving its extends chain against the
// gallery directory), pass validation, and build a live rig. This is
// the CI gate that keeps the gallery honest — a spec-layer change that
// orphans a shipped scenario fails here, not in a user's hands.
func TestScenarioGallery(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The gallery ships the legacy program scenario, the workload plane
	// set (base fleet, one per load shape, the heterogeneous fleet) and
	// the two single-node demos; a glob that comes back short means the
	// gallery moved and this test is silently validating nothing.
	if len(files) < 9 {
		t.Fatalf("only %d gallery scenarios found, want >= 9", len(files))
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			s, err := LoadScenario(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			rig, err := s.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer rig.Cluster.Close()
			if rig.Cluster == nil || len(rig.Cluster.Nodes) != s.Nodes {
				t.Fatalf("rig has %d nodes, scenario declares %d", len(rig.Cluster.Nodes), s.Nodes)
			}
			if s.HasWorkload() && rig.Program == nil && len(rig.Generators) != s.Nodes {
				t.Fatalf("workload scenario built %d generators for %d nodes", len(rig.Generators), s.Nodes)
			}
		})
	}
}

// TestGalleryExtendsChains pins the composition semantics the gallery
// files rely on, so a merge-rule change shows up as a named diff here
// rather than an opaque Build failure above.
func TestGalleryExtendsChains(t *testing.T) {
	dir := filepath.Join("..", "..", "examples")

	diurnal, err := LoadScenario(filepath.Join(dir, "loadshape-diurnal.json"))
	if err != nil {
		t.Fatal(err)
	}
	if diurnal.Chaos != (ChaosSpec{}) {
		t.Error("loadshape-diurnal: \"chaos\": null failed to delete the inherited block")
	}
	if len(diurnal.Groups) != 3 || diurnal.Nodes != 8 {
		t.Errorf("loadshape-diurnal: inherited fleet = %d groups / %d nodes, want 3 / 8",
			len(diurnal.Groups), diurnal.Nodes)
	}

	steps, err := LoadScenario(filepath.Join(dir, "loadshape-steps.json"))
	if err != nil {
		t.Fatal(err)
	}
	if steps.Seed != 7 {
		t.Errorf("loadshape-steps: seed = %d, want the two-level override 7", steps.Seed)
	}
	if steps.Workload == nil || steps.Workload.Kind != "steps" {
		t.Errorf("loadshape-steps: workload kind = %v through the chain", steps.Workload)
	}
	if steps.Chaos.Seed != 42 {
		t.Error("loadshape-steps: chaos block lost through the two-level chain")
	}

	flash, err := LoadScenario(filepath.Join(dir, "loadshape-flashcrowd.json"))
	if err != nil {
		t.Fatal(err)
	}
	if flash.Control.Tuning.Pp != 25 {
		t.Errorf("loadshape-flashcrowd: pp = %d, want the nested override 25", flash.Control.Tuning.Pp)
	}
	if flash.Control.Fan != "dynamic" {
		t.Errorf("loadshape-flashcrowd: fan = %q, nested merge dropped the sibling key", flash.Control.Fan)
	}
}
