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

func TestReadFillsDefaults(t *testing.T) {
	c, err := Read(strings.NewReader(`{"pp": 25}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Pp != 25 {
		t.Errorf("pp = %d", c.Pp)
	}
	if c.MaxFanDuty != 100 || c.ThresholdC != 51 || c.SampleMS != 250 {
		t.Errorf("defaults not filled: %+v", c)
	}
}

// TestReadRejectsEnableDVFS: enable_dvfs is not a config field (the
// scenario's control.dvfs selects the daemon), so strict decoding must
// refuse it rather than let "false" look like tDVFS is off.
func TestReadRejectsEnableDVFS(t *testing.T) {
	_, err := Read(strings.NewReader(`{"enable_dvfs": false}`))
	if err == nil || !strings.Contains(err.Error(), "enable_dvfs") {
		t.Fatalf("enable_dvfs: error %v, want an unknown-field rejection naming it", err)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"p": 50}`)); err == nil {
		t.Error("unknown field accepted (typo protection)")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestValidateBounds(t *testing.T) {
	cases := []string{
		`{"pp": 101}`,
		`{"max_fan_duty": 150}`,
		`{"tmin_c": 60, "tmax_c": 50}`,
		`{"threshold_c": 90}`,
		`{"hysteresis_c": 50}`,
		`{"sample_ms": 5}`,
	}
	for _, body := range cases {
		if _, err := Read(strings.NewReader(body)); err == nil {
			t.Errorf("invalid config accepted: %s", body)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "thermctl.json")
	body := `{"pp": 75, "max_fan_duty": 60, "threshold_c": 55}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pp != 75 || c.MaxFanDuty != 60 || c.ThresholdC != 55 {
		t.Errorf("loaded: %+v", c)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
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
