package hotspot

import (
	"math"
	"strings"
	"testing"
	"time"

	"thermctl/internal/node"
	"thermctl/internal/trace"
	"thermctl/internal/workload"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func seriesFrom(vals []float64) *trace.Series {
	s := &trace.Series{}
	for i, v := range vals {
		s.Add(sec(float64(i)), v)
	}
	return s
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil, nil); err == nil {
		t.Error("nil series accepted")
	}
	if _, err := Analyze(&trace.Series{}, nil); err == nil {
		t.Error("empty series accepted")
	}
	s := seriesFrom([]float64{40, 41})
	if _, err := Analyze(s, []Span{{Label: "x", Start: sec(5), End: sec(2)}}); err == nil {
		t.Error("inverted span accepted")
	}
	if _, err := Analyze(s, []Span{{Label: "x", Start: sec(100), End: sec(200)}}); err == nil {
		t.Error("span with no samples accepted")
	}
}

func TestAnalyzeBasicAttribution(t *testing.T) {
	// 0-4 s flat at 40 ("idle"), 5-9 s climbing 50→58 ("compute").
	s := seriesFrom([]float64{40, 40, 40, 40, 40, 50, 52, 54, 56, 58})
	rep, err := Analyze(s, []Span{
		{Label: "idle", Start: 0, End: sec(5)},
		{Label: "compute", Start: sec(5), End: sec(10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	idle, compute := rep.Stats["idle"], rep.Stats["compute"]
	if idle.MeanC != 40 || idle.MaxC != 40 || idle.RiseC != 0 {
		t.Errorf("idle stats: %+v", idle)
	}
	if compute.MeanC != 54 || compute.MaxC != 58 {
		t.Errorf("compute stats: %+v", compute)
	}
	if compute.RiseC != 8 {
		t.Errorf("compute rise = %v, want 8", compute.RiseC)
	}
	// 8 °C over 5 s = 96 °C/min.
	if math.Abs(compute.RatePerMin-96) > 1e-9 {
		t.Errorf("compute rate = %v, want 96", compute.RatePerMin)
	}
}

func TestAnalyzeRepeatedLabelMerges(t *testing.T) {
	s := seriesFrom([]float64{40, 42, 40, 44, 40, 46})
	rep, err := Analyze(s, []Span{
		{Label: "burst", Start: sec(1), End: sec(2)},
		{Label: "burst", Start: sec(3), End: sec(4)},
		{Label: "burst", Start: sec(5), End: sec(6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Stats["burst"]
	if b.Spans != 3 {
		t.Errorf("spans = %d", b.Spans)
	}
	if b.MeanC != 44 { // (42+44+46)/3
		t.Errorf("merged mean = %v, want 44", b.MeanC)
	}
	if b.MaxC != 46 {
		t.Errorf("max = %v", b.MaxC)
	}
	if b.Time != 3*time.Second {
		t.Errorf("time = %v", b.Time)
	}
}

func TestRankOrdersHottestFirst(t *testing.T) {
	s := seriesFrom([]float64{40, 50, 60, 45, 45, 45})
	rep, err := Analyze(s, []Span{
		{Label: "hot", Start: sec(1), End: sec(3)},
		{Label: "warm", Start: sec(3), End: sec(6)},
		{Label: "cold", Start: 0, End: sec(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ranked := rep.Rank()
	if len(ranked) != 3 || ranked[0].Label != "hot" || ranked[2].Label != "cold" {
		labels := make([]string, len(ranked))
		for i, r := range ranked {
			labels[i] = r.Label
		}
		t.Errorf("rank = %v", labels)
	}
	out := rep.String()
	if !strings.Contains(out, "hot") || !strings.Contains(out, "degC/min") {
		t.Errorf("report:\n%s", out)
	}
}

// TestEndToEndFindsTheHotPhase profiles a real simulated run of the
// Figure 2 workload and checks the tool points at the ramp/burn phases
// rather than the idle ones.
func TestEndToEndFindsTheHotPhase(t *testing.T) {
	n, err := node.New(node.DefaultConfig("hotspot", 71))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0.05)
	n.SetGenerator(workload.Fig2Profile())
	temp := &trace.Series{}
	dt := 250 * time.Millisecond
	for n.Elapsed() < 300*time.Second {
		n.Step(dt)
		temp.Add(n.Elapsed(), n.Sensor.Read())
	}
	rep, err := Analyze(temp, []Span{
		{Label: "idle", Start: 0, End: sec(30)},
		{Label: "onset", Start: sec(30), End: sec(90)},
		{Label: "jitter", Start: sec(90), End: sec(150)},
		{Label: "ramp", Start: sec(150), End: sec(270)},
		{Label: "cooldown", Start: sec(270), End: sec(300)},
	})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Rank()[0].Label
	if top != "ramp" && top != "onset" {
		t.Errorf("hottest phase = %q, want the ramp or the onset", top)
	}
	if rep.Stats["idle"].MaxC >= rep.Stats["ramp"].MaxC {
		t.Error("idle ranked as hot as the ramp")
	}
	if rep.Stats["cooldown"].RatePerMin >= 0 {
		t.Errorf("cooldown heating rate = %+.2f, want negative",
			rep.Stats["cooldown"].RatePerMin)
	}
}
