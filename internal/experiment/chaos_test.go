package experiment

import (
	"strings"
	"testing"
	"time"

	"thermctl/internal/core"
)

// TestChaosDropoutSurvival asserts the acceptance criteria of the
// resilience plane: under a 30 s total sensor dropout the fail-safe
// drives the fan to maximum within its escalation window, the die never
// reaches the hardware trip point, and control recovers within the
// recovery window once the sensor returns.
func TestChaosDropoutSurvival(t *testing.T) {
	r, err := chaosDropout(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Escalated {
		t.Fatal("fail-safe never engaged during a 30s total sensor dropout")
	}
	escWindow := time.Duration(core.FailSafeEscalateErrors+2) * chaosSamplePeriod
	if lat := r.EscalateLatency(); lat > escWindow {
		t.Errorf("escalate latency %v exceeds window %v", lat, escWindow)
	}
	if !r.FanMaxReached {
		t.Fatal("fan never reached max duty while blind")
	}
	if r.FanMaxAt > r.FailStart+escWindow {
		t.Errorf("fan at max only at %v, want within %v of dropout start", r.FanMaxAt, escWindow)
	}
	if r.MaxDieC >= emergencyC {
		t.Errorf("die peaked at %.2f degC, at or above the %v degC trip point", r.MaxDieC, emergencyC)
	}
	if r.Emergencies != 0 {
		t.Errorf("hardware protection fired %d times, want 0", r.Emergencies)
	}
	if !r.Released {
		t.Fatal("fail-safe never released after the sensor recovered")
	}
	recWindow := time.Duration(core.FailSafeRecoverSamples+2) * chaosSamplePeriod
	if lat := r.RecoverLatency(); lat > recWindow {
		t.Errorf("recover latency %v exceeds window %v", lat, recWindow)
	}
	if r.FinalDuty >= 100 {
		t.Errorf("fan still pinned at %.1f%% at run end; control did not resume", r.FinalDuty)
	}
	if r.BlindRounds <= 0 || r.BlindRounds > core.FailSafeEscalateErrors+2 {
		t.Errorf("BlindRounds = %d, want in (0, %d]", r.BlindRounds, core.FailSafeEscalateErrors+2)
	}
}

func TestChaosCampaignSurvivesAndIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaign runs")
	}
	a, err := Chaos(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Campaign.Episodes == 0 || a.Campaign.Transitions == 0 {
		t.Errorf("campaign scheduled nothing: %+v", a.Campaign)
	}
	if a.Campaign.BusErrors == 0 {
		t.Error("campaign injected faults but controllers saw zero errors")
	}
	rep := a.String()
	for _, want := range []string{"Chaos survival report", "Scenario A", "Scenario B", "fault timeline"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	b, err := Chaos(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if rep != b.String() {
		t.Error("same seed produced different survival reports")
	}
}
