package server

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestExtendsGroupsRoundTripAPI is the workload plane's API acceptance
// path: a scenario composed with "extends" over a heterogeneous
// grouped fleet submits against a server configured with a scenario
// library, runs to completion, and the scenario in its job log line is
// the flattened document — groups, workload and all, with no trace of the
// extends chain.
func TestExtendsGroupsRoundTripAPI(t *testing.T) {
	lib := t.TempDir()
	base := `{
		"name": "fleet-base",
		"seed": 9,
		"workload": {"kind": "steps", "levels": [0.3, 0.7, 0.5], "hold_ms": 1500, "loop": true},
		"groups": [
			{"name": "std", "nodes": 2},
			{"name": "weakfan", "nodes": 2, "hardware": {"fan_max_rpm": 3000, "ambient_offset_c": 4}}
		],
		"control": {"fan": "dynamic", "dvfs": "tdvfs", "tuning": {"pp": 50}}
	}`
	if err := os.WriteFile(filepath.Join(lib, "fleet-base.json"), []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Dir: dir, ScenarioDir: lib, GeneratorHorizon: 8 * time.Second})

	derived := `{
		"extends": "fleet-base.json",
		"name": "fleet-hot",
		"workload": {"kind": "flashcrowd", "base": 0.2, "peak": 0.95, "at_ms": 2000, "decay_ms": 3000}
	}`
	v := submit(t, ts, derived)
	final := waitTerminal(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s, want done (err %q)", final.State, final.Error)
	}

	// The logged scenario is the flattened one: it re-reads
	// with no scenario directory (no library needed — no extends left)
	// with the base's groups and the child's workload override.
	spec := lineScenario(t, jobLine(t, dir, v.ID))
	if spec.Name != "fleet-hot" || spec.Seed != 9 || spec.Nodes != 4 {
		t.Fatalf("stored scenario = %s/%d/%d nodes", spec.Name, spec.Seed, spec.Nodes)
	}
	if len(spec.Groups) != 2 || spec.Groups[1].Name != "weakfan" || spec.Groups[1].Hardware.FanMaxRPM != 3000 {
		t.Fatalf("groups lost in round trip: %+v", spec.Groups)
	}
	if spec.Workload == nil || spec.Workload.Kind != "flashcrowd" {
		t.Fatalf("workload override lost: %+v", spec.Workload)
	}

	// The trace artifact covers the whole 4-node grouped fleet.
	fetchTrace(t, ts, final, 4)
}

// TestExtendsRefusedWithoutLibrary: a server with no scenario library
// must reject extends rather than read files relative to its cwd.
func TestExtendsRefusedWithoutLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, status := trySubmit(t, ts, `{"extends": "anything.json"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
}

// TestProgramlessJobDefaultsWorkload: the pre-plane contract — a bare
// programless scenario still runs cpu-burn — now goes through the
// declarative plane, and the effective workload is persisted in the
// job's log line rather than implied by server code.
func TestProgramlessJobDefaultsWorkload(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Dir: dir, GeneratorHorizon: 5 * time.Second})
	v := submit(t, ts, `{"nodes": 2}`)
	final := waitTerminal(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q)", final.State, final.Error)
	}
	spec := lineScenario(t, jobLine(t, dir, v.ID))
	if spec.Workload == nil || spec.Workload.Kind != "cpuburn" {
		t.Fatalf("defaulted workload not persisted: %+v", spec.Workload)
	}
}

// TestDeclaredWorkloadJobRuns: an explicit workload spec drives the
// job end to end through RunGenerators.
func TestDeclaredWorkloadJobRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{GeneratorHorizon: 5 * time.Second})
	v := submit(t, ts, `{
		"nodes": 2,
		"workload": {"kind": "random", "dist": "heavytail", "alpha": 1.3, "hold_ms": 500},
		"control": {"fan": "dynamic"}
	}`)
	final := waitTerminal(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q)", final.State, final.Error)
	}
	if final.ExecTimeMS != 5000 {
		t.Fatalf("exec_time_ms = %d, want the 5s horizon", final.ExecTimeMS)
	}
	if _, status := trySubmit(t, ts, `{"program": "bt", "workload": {"kind": "constant", "util": 1}}`); status != http.StatusBadRequest {
		t.Fatalf("program+workload submission: status %d, want 400", status)
	}
}
