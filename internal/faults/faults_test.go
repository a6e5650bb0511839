package faults

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParsePlanRoundTrip(t *testing.T) {
	src := `{
		"name": "campaign",
		"schedules": [
			{"target": "node0", "episodes": [
				{"kind": "sensor-dropout", "start": "20s", "for": "30s"},
				{"kind": "i2c-nak", "start": "5s", "for": "2.5s", "rate": 0.3},
				{"kind": "sensor-spike", "start": 60, "for": 2, "param": 15}
			]},
			{"target": "node1", "episodes": [
				{"kind": "fan-degrade", "start": "0s", "for": "10s", "param": 0.5}
			]}
		]
	}`
	p, err := ParsePlan([]byte(src))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Name != "campaign" || len(p.Schedules) != 2 {
		t.Fatalf("unexpected plan shape: %+v", p)
	}
	ep := p.Schedules[0].Episodes[2]
	if time.Duration(ep.Start) != 60*time.Second || time.Duration(ep.Duration) != 2*time.Second {
		t.Fatalf("numeric durations misparsed: %+v", ep)
	}

	// Marshal and reparse: identical plan.
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	p2, err := ParsePlan(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	out2, err := json.Marshal(p2)
	if err != nil {
		t.Fatalf("remarshal: %v", err)
	}
	if !bytes.Equal(out, out2) {
		t.Fatalf("round trip not stable:\n%s\n%s", out, out2)
	}
}

func TestParsePlanRejectsInvalid(t *testing.T) {
	// Each case names a substring the error must carry.
	cases := map[string]struct{ src, want string }{
		"unknown kind":  {`{"schedules":[{"target":"a","episodes":[{"kind":"nope","start":"0s","for":"1s"}]}]}`, "unknown fault kind"},
		"ipmi-timeout":  {`{"schedules":[{"target":"a","episodes":[{"kind":"ipmi-timeout","start":"0s","for":"1s"}]}]}`, "unknown fault kind"},
		"ipmi-latency":  {`{"schedules":[{"target":"a","episodes":[{"kind":"ipmi-latency","start":"0s","for":"1s","param":20}]}]}`, "unknown fault kind"},
		"zero duration": {`{"schedules":[{"target":"a","episodes":[{"kind":"fan-stall","start":"0s","for":"0s"}]}]}`, "non-positive duration"},
		"neg start":     {`{"schedules":[{"target":"a","episodes":[{"kind":"fan-stall","start":"-1s","for":"1s"}]}]}`, "negative start"},
		"end overflows": {`{"schedules":[{"target":"a","episodes":[{"kind":"fan-stall","start":"2000000h","for":"2000000h"}]}]}`, "fan-stall: end"},
		"rate > 1":      {`{"schedules":[{"target":"a","episodes":[{"kind":"i2c-nak","start":"0s","for":"1s","rate":1.5}]}]}`, "outside [0,1]"},
		"rate missing":  {`{"schedules":[{"target":"a","episodes":[{"kind":"i2c-fault","start":"0s","for":"1s"}]}]}`, "rate required"},
		"bad degrade":   {`{"schedules":[{"target":"a","episodes":[{"kind":"fan-degrade","start":"0s","for":"1s","param":1.5}]}]}`, "fan-degrade: param"},
		"empty target":  {`{"schedules":[{"target":"","episodes":[]}]}`, "empty target"},
		"dup target":    {`{"schedules":[{"target":"a","episodes":[]},{"target":"a","episodes":[]}]}`, "duplicate target"},
		"bad json":      {`{"schedules":`, "parse plan"},
	}
	for name, c := range cases {
		_, err := ParsePlan([]byte(c.src))
		if err == nil {
			t.Errorf("%s: ParsePlan accepted invalid plan", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	targets := []string{"node0", "node1", "node2", "node3"}
	a := Generate(20100131, targets, time.Minute)
	b := Generate(20100131, targets, time.Minute)
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed produced different plans:\n%s\n%s", ja, jb)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	if len(a.Schedules) != len(targets) {
		t.Fatalf("want %d schedules, got %d", len(targets), len(a.Schedules))
	}
	c := Generate(7, targets, time.Minute)
	jc, _ := json.Marshal(c)
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlaneTimelineAndStates(t *testing.T) {
	plan := Plan{
		Name: "t",
		Schedules: []Schedule{{
			Target: "node0",
			Episodes: []Episode{
				{Kind: SensorDropout, Start: Dur(1 * time.Second), Duration: Dur(2 * time.Second)},
				{Kind: SensorSpike, Start: Dur(2 * time.Second), Duration: Dur(2 * time.Second), Param: 5},
				{Kind: SensorSpike, Start: Dur(3 * time.Second), Duration: Dur(1 * time.Second), Param: 3},
				{Kind: FanStall, Start: Dur(10 * time.Second), Duration: Dur(1 * time.Second)},
			},
		}},
	}
	p, err := NewPlane(plan)
	if err != nil {
		t.Fatal(err)
	}
	inj := p.Injector("node0")
	if s := inj.State(); s != (State{}) {
		t.Fatalf("initial state not healthy: %+v", s)
	}

	for ms := 0; ms <= 11000; ms += 250 {
		p.OnStep(time.Duration(ms) * time.Millisecond)
	}
	// At the final step only nothing is active.
	if s := inj.State(); s != (State{}) {
		t.Fatalf("final state not healthy: %+v", s)
	}

	want := strings.Join([]string{
		"1s node0 sensor-dropout begin",
		"2s node0 sensor-spike begin",
		"3s node0 sensor-dropout clear",
		"3s node0 sensor-spike begin",
		"4s node0 sensor-spike clear",
		"4s node0 sensor-spike clear",
		"10s node0 fan-stall begin",
		"11s node0 fan-stall clear",
	}, "\n") + "\n"
	if got := p.Timeline(); got != want {
		t.Fatalf("timeline mismatch:\ngot:\n%swant:\n%s", got, want)
	}

	// Spike windows overlapped at t=3.5s: offsets must sum.
	p2, _ := NewPlane(plan)
	inj2 := p2.Injector("node0")
	p2.OnStep(3500 * time.Millisecond)
	if s := inj2.State(); s.SensorSpikeC != 8 || s.SensorDropout {
		t.Fatalf("overlap fold wrong: %+v", s)
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var inj *Injector
	if s := inj.State(); s != (State{}) {
		t.Fatalf("nil injector not healthy: %+v", s)
	}
	st := Static(State{I2CFaultRate: 0.2, FanStalled: true})
	if s := st.State(); s.I2CFaultRate != 0.2 || !s.FanStalled {
		t.Fatalf("static injector wrong: %+v", s)
	}
}

func TestPlaneUnknownTargetHealthy(t *testing.T) {
	p, err := NewPlane(Plan{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	inj := p.Injector("ghost")
	p.OnStep(0)
	if s := inj.State(); s != (State{}) {
		t.Fatalf("unscheduled target not healthy: %+v", s)
	}
}

func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`{"name":"x","schedules":[{"target":"a","episodes":[{"kind":"sensor-stuck","start":"1s","for":"2s"}]}]}`))
	f.Add([]byte(`{"schedules":[{"target":"a","episodes":[{"kind":"i2c-nak","start":0,"for":1,"rate":0.5}]}]}`))
	f.Add([]byte(`{"schedules":[{"target":"a","episodes":[{"kind":"fan-degrade","start":"0s","for":"1s","param":0.5}]}]}`))
	f.Add([]byte(`{"schedules":[{"target":"a","episodes":[{"kind":"fan-stall","start":"2000000h","for":"2000000h"}]}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"schedules":[{"target":"a","episodes":[{"kind":"fan-degrade","start":"0s","for":"1s","param":1e309}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		// An accepted plan must validate, drive a plane, and survive a
		// marshal/reparse round trip.
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		// Every accepted episode is active from its start.
		for _, s := range p.Schedules {
			for _, ep := range s.Episodes {
				if !ep.active(time.Duration(ep.Start)) {
					t.Fatalf("accepted episode %+v is not active at its start", ep)
				}
			}
		}
		pl, err := NewPlane(p)
		if err != nil {
			t.Fatalf("accepted plan rejected by NewPlane: %v", err)
		}
		pl.OnStep(0)
		pl.OnStep(time.Second)
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan fails marshal: %v", err)
		}
		if _, err := ParsePlan(out); err != nil {
			t.Fatalf("marshal of accepted plan rejected: %v\n%s", err, out)
		}
	})
}
