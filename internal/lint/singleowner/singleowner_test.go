package singleowner_test

import (
	"testing"

	"thermctl/internal/lint/linttest"
	"thermctl/internal/lint/singleowner"
)

func TestSingleOwner(t *testing.T) {
	linttest.Run(t, "testdata/so", singleowner.Analyzer)
}

func TestScope(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"thermctl/internal/node", true},
		{"thermctl/internal/fan", true},
		{"thermctl/internal/adt7467", true},
		{"thermctl/internal/i2c", true},
		{"thermctl/internal/hwmon", true},
		{"thermctl/internal/sensor", true},
		{"thermctl/internal/cpufreq", true},
		// The out-of-band entry point and the stepping layers keep
		// their locks.
		{"thermctl/internal/ipmi", false},
		{"thermctl/internal/cluster", false},
		{"thermctl/internal/core", false},
		{"thermctl/internal/metrics", false},
		{"thermctl/cmd/thermctld", false},
	}
	for _, c := range cases {
		if got := singleowner.Analyzer.AppliesTo(c.path); got != c.want {
			t.Errorf("AppliesTo(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
