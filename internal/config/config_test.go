package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.SamplePeriod() != 250*time.Millisecond {
		t.Errorf("default sample period %v", c.SamplePeriod())
	}
}

// Tuning reaches the tools only as a scenario's control.tuning, so the
// read, load and bounds checks below go through ReadScenarioDir and
// LoadScenario; tuning wraps a tuning object in a minimal scenario.
func tuning(fields string) string {
	return `{"control": {"tuning": ` + fields + `}}`
}

func TestReadFillsDefaults(t *testing.T) {
	s, err := ReadScenarioDir(strings.NewReader(tuning(`{"pp": 25}`)), "")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Control.Tuning
	if c.Pp != 25 {
		t.Errorf("pp = %d", c.Pp)
	}
	if c.MaxFanDuty != 100 || c.ThresholdC != 51 || c.SampleMS != 250 {
		t.Errorf("defaults not filled: %+v", c)
	}
}

// TestReadRejectsEnableDVFS: enable_dvfs is not a tuning field (the
// scenario's control.dvfs selects the daemon), so strict decoding must
// refuse it rather than let "false" look like tDVFS is off.
func TestReadRejectsEnableDVFS(t *testing.T) {
	_, err := ReadScenarioDir(strings.NewReader(tuning(`{"enable_dvfs": false}`)), "")
	if err == nil || !strings.Contains(err.Error(), "enable_dvfs") {
		t.Fatalf("enable_dvfs: error %v, want an unknown-field rejection naming it", err)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := ReadScenarioDir(strings.NewReader(tuning(`{"p": 50}`)), ""); err == nil {
		t.Error("unknown tuning field accepted (typo protection)")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadScenarioDir(strings.NewReader(`not json`), ""); err == nil {
		t.Error("garbage accepted")
	}
}

func TestValidateBounds(t *testing.T) {
	// Each body breaks one bound; the error must name that field.
	cases := [][2]string{
		{`{"pp": 101}`, "pp"},
		{`{"max_fan_duty": 150}`, "max_fan_duty"},
		{`{"tmin_c": 60, "tmax_c": 50}`, "tmax_c"},
		{`{"threshold_c": 90}`, "threshold_c"},
		{`{"hysteresis_c": 50}`, "hysteresis_c"},
		{`{"sample_ms": 5}`, "sample_ms"},
	}
	for _, c := range cases {
		_, err := ReadScenarioDir(strings.NewReader(tuning(c[0])), "")
		if err == nil || !strings.Contains(err.Error(), c[1]) {
			t.Errorf("tuning %s: error %v, want a bound error naming %s", c[0], err, c[1])
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "thermctl.json")
	body := tuning(`{"pp": 75, "max_fan_duty": 60, "threshold_c": 55}`)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Control.Tuning; c.Pp != 75 || c.MaxFanDuty != 60 || c.ThresholdC != 55 {
		t.Errorf("loaded: %+v", c)
	}
	if _, err := LoadScenario(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConversions(t *testing.T) {
	c := Default()
	c.Pp = 25
	cc := c.ControllerConfig()
	if cc.Pp != 25 || cc.TminC != 38 || cc.TmaxC != 82 {
		t.Errorf("ControllerConfig: %+v", cc)
	}
	tc := c.TDVFSConfig()
	if tc.Pp != 25 || tc.ThresholdC != 51 || tc.HysteresisC != 3 {
		t.Errorf("TDVFSConfig: %+v", tc)
	}
}
