package workload

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpecBuildDispatch(t *testing.T) {
	cases := []struct {
		spec Spec
		at   time.Duration
		want float64
	}{
		{Spec{Kind: KindConstant, Util: 0.7}, time.Hour, 0.7},
		{Spec{Kind: KindStep, Before: 0.1, After: 0.9, AtMS: 1000}, 2 * time.Second, 0.9},
		{Spec{Kind: KindRamp, From: 0.2, To: 0.8, StartMS: 0, OverMS: 10000}, 5 * time.Second, 0.5},
		{Spec{Kind: KindJitter, Low: 0.1, High: 0.9, PeriodMS: 1000}, 0, 0.9},
		{Spec{Kind: KindTrace, Samples: []float64{0.3, 0.3}, PeriodMS: 1000}, 500 * time.Millisecond, 0.3},
		{Spec{Kind: KindSteps, Levels: []float64{0.1, 0.6}, HoldMS: 1000}, 1500 * time.Millisecond, 0.6},
		{Spec{Kind: KindDiurnal, Base: 0.5, Amplitude: 0.2, PeriodMS: 60000}, 30 * time.Second, 0.7},
		{Spec{Kind: KindFlashCrowd, Base: 0.2, Peak: 0.9, AtMS: 1000}, 0, 0.2},
	}
	for _, c := range cases {
		g, err := c.spec.Build(1, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Kind, err)
		}
		if got := g.Utilization(c.at); got != c.want {
			t.Errorf("%s at %v = %v, want %v", c.spec.Kind, c.at, got, c.want)
		}
	}
}

func TestSpecBuildPerNodeIndependence(t *testing.T) {
	// The point of the factory: stateful generators built for different
	// nodes from the same family seed are independent instances with
	// independent streams.
	spec := Spec{Kind: KindCPUBurn}
	g0, err := spec.Build(99, 0)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := spec.Build(99, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Second
		if g0.Utilization(at) == g1.Utilization(at) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("nodes 0 and 1 agreed on %d/100 cpuburn samples; streams are correlated", same)
	}

	// And the same (seed, node) pair rebuilds the same stream.
	a, _ := spec.Build(99, 0)
	b, _ := spec.Build(99, 0)
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Second
		if a.Utilization(at) != b.Utilization(at) {
			t.Fatalf("same (seed, node) diverged at %v", at)
		}
	}
}

func TestSpecRandomPerNodeIndependence(t *testing.T) {
	spec := Spec{Kind: KindRandom, HoldMS: 1000}
	g0, _ := spec.Build(7, 0)
	g1, _ := spec.Build(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Second
		if g0.Utilization(at) == g1.Utilization(at) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("nodes 0 and 1 agreed on %d/100 random draws", same)
	}
}

func TestSpecSequenceSegmentsGetDistinctStreams(t *testing.T) {
	spec := Spec{Kind: KindSequence, Segments: []SegmentSpec{
		{Spec: Spec{Kind: KindRandom, HoldMS: 1000}, ForMS: 100000},
		{Spec: Spec{Kind: KindRandom, HoldMS: 1000}, ForMS: 100000},
	}}
	g, err := spec.Build(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Identical sub-specs at the same within-segment offset must not
	// replay each other: segment streams are derived per index.
	same := 0
	for i := 0; i < 50; i++ {
		off := time.Duration(i) * time.Second
		if g.Utilization(off) == g.Utilization(100*time.Second+off) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sequence segments agreed on %d/50 draws; segment streams are shared", same)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"missing kind", Spec{}, "missing kind"},
		{"unknown kind", Spec{Kind: "mystery"}, "unknown"},
		{"constant out of range", Spec{Kind: KindConstant, Util: 1.5}, "outside"},
		{"jitter no period", Spec{Kind: KindJitter}, "positive period"},
		{"trace no samples", Spec{Kind: KindTrace, PeriodMS: 100}, "at least one sample"},
		{"trace no period", Spec{Kind: KindTrace, Samples: []float64{0.5}}, "sample spacing"},
		{"random bad dist", Spec{Kind: KindRandom, Dist: "gaussian"}, "uniform, exponential or heavytail"},
		{"random inverted range", Spec{Kind: KindRandom, Min: 0.8, Max: 0.2}, "below min"},
		{"steps no levels", Spec{Kind: KindSteps, HoldMS: 100}, "at least one level"},
		{"steps no hold", Spec{Kind: KindSteps, Levels: []float64{0.5}}, "per-level duration"},
		{"diurnal no period", Spec{Kind: KindDiurnal}, "cycle length"},
		{"flashcrowd inverted", Spec{Kind: KindFlashCrowd, Base: 0.9, Peak: 0.2}, "below base"},
		{"empty sequence", Spec{Kind: KindSequence}, "at least one segment"},
		{"negative segment", Spec{Kind: KindSequence, Segments: []SegmentSpec{
			{Spec: Spec{Kind: KindConstant}, ForMS: -1}}}, "for_ms"},
		{"bad nested segment", Spec{Kind: KindSequence, Segments: []SegmentSpec{
			{Spec: Spec{Kind: "nope"}, ForMS: 10}}}, "segment 0"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSpecValidateDepthLimit(t *testing.T) {
	s := Spec{Kind: KindConstant, Util: 0.5}
	for i := 0; i < maxSequenceDepth+1; i++ {
		s = Spec{Kind: KindSequence, Segments: []SegmentSpec{{Spec: s, ForMS: 10}}}
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Errorf("deep nesting accepted: %v", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	src := `{
		"kind": "sequence",
		"segments": [
			{"kind": "diurnal", "base": 0.5, "amplitude": 0.3, "period_ms": 240000, "for_ms": 240000},
			{"kind": "flashcrowd", "base": 0.2, "peak": 0.95, "at_ms": 10000, "rise_ms": 5000, "decay_ms": 30000, "for_ms": 120000},
			{"kind": "random", "dist": "heavytail", "alpha": 1.2, "hold_ms": 2000, "for_ms": 0}
		]
	}`
	var spec Spec
	if err := json.Unmarshal([]byte(src), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	g1, err := spec.Build(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := back.Build(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 2 * time.Second
		if g1.Utilization(at) != g2.Utilization(at) {
			t.Fatalf("round-tripped spec diverged at %v", at)
		}
	}
	if spec.String() != "sequence" {
		t.Errorf("String() = %q", spec.String())
	}
	var nilSpec *Spec
	if nilSpec.String() != "none" {
		t.Errorf("nil String() = %q", nilSpec.String())
	}
}

func TestSpecFig2MatchesProfile(t *testing.T) {
	g, err := (&Spec{Kind: KindFig2}).Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Fig2Profile()
	for i := 0; i < 300; i++ {
		at := time.Duration(i) * time.Second
		if g.Utilization(at) != want.Utilization(at) {
			t.Fatalf("fig2 spec diverged from Fig2Profile at %v", at)
		}
	}
}

func TestSpecTimeOnly(t *testing.T) {
	seg := func(kind string) SegmentSpec { return SegmentSpec{Spec: Spec{Kind: kind}, ForMS: 1000} }
	for _, tc := range []struct {
		spec Spec
		want bool
	}{
		{Spec{Kind: KindConstant}, true},
		{Spec{Kind: KindStep}, true},
		{Spec{Kind: KindRamp}, true},
		{Spec{Kind: KindJitter}, true},
		{Spec{Kind: KindTrace}, true},
		{Spec{Kind: KindSteps}, true},
		{Spec{Kind: KindDiurnal}, true},
		{Spec{Kind: KindFlashCrowd}, true},
		{Spec{Kind: KindFig2}, true},
		{Spec{Kind: KindRandom}, false},
		{Spec{Kind: KindCPUBurn}, false},
		{Spec{Kind: KindSequence, Segments: []SegmentSpec{seg(KindStep), seg(KindDiurnal)}}, true},
		{Spec{Kind: KindSequence, Segments: []SegmentSpec{seg(KindStep), seg(KindRandom)}}, false},
		{Spec{Kind: KindSequence, Segments: []SegmentSpec{seg(KindConstant),
			{Spec: Spec{Kind: KindSequence, Segments: []SegmentSpec{seg(KindCPUBurn)}}}}}, false},
	} {
		if got := tc.spec.TimeOnly(); got != tc.want {
			t.Errorf("%s %v: TimeOnly = %v, want %v", tc.spec.Kind, tc.spec.Segments, got, tc.want)
		}
	}
}
