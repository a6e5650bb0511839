package thermctl

import (
	"testing"
	"time"
)

func TestRecommendPpFindsCostEfficientPolicy(t *testing.T) {
	cfg := DefaultNodeConfig("advise", 101)
	// cpu-burn with a full fan: achievable targets lie roughly between
	// 50 °C (Pp=1, fan pegged) and 56 °C (Pp=100, lazy fan).
	pp, meets, err := RecommendPp(cfg, func() Generator { return CPUBurn(3) }, 100, 52.5)
	if err != nil {
		t.Fatal(err)
	}
	if !meets {
		t.Fatal("52.5 °C should be reachable with a full fan")
	}
	if pp < 1 || pp > 100 {
		t.Fatalf("pp = %d out of range", pp)
	}
	// A looser target must never recommend a more aggressive policy.
	ppLoose, meetsLoose, err := RecommendPp(cfg, func() Generator { return CPUBurn(3) }, 100, 55)
	if err != nil {
		t.Fatal(err)
	}
	if !meetsLoose {
		t.Fatal("55 °C should be reachable")
	}
	if ppLoose < pp {
		t.Errorf("looser target got more aggressive policy: %d vs %d", ppLoose, pp)
	}
}

func TestRecommendPpUnreachableTarget(t *testing.T) {
	cfg := DefaultNodeConfig("advise2", 103)
	// A 30% duty cap cannot hold cpu-burn at 45 °C no matter the policy.
	pp, meets, err := RecommendPp(cfg, func() Generator { return CPUBurn(5) }, 30, 45)
	if err != nil {
		t.Fatal(err)
	}
	if meets {
		t.Error("45 °C reported reachable with a 30% fan cap")
	}
	if pp != PpMin {
		t.Errorf("unreachable target should return PpMin, got %d", pp)
	}
}

func TestRecommendPpTrivialTarget(t *testing.T) {
	cfg := DefaultNodeConfig("advise3", 107)
	// A 70 °C target is met even by the laziest policy.
	pp, meets, err := RecommendPp(cfg, func() Generator { return CPUBurn(7) }, 100, 70)
	if err != nil {
		t.Fatal(err)
	}
	if !meets || pp != PpMax {
		t.Errorf("trivial target: pp=%d meets=%v, want PpMax/true", pp, meets)
	}
}

// TestRecommendPpRepeatable: the answer depends only on the arguments.
// Two calls on one generator constructor must agree; a generator shared
// across calibration runs would hand each probe a different load.
func TestRecommendPpRepeatable(t *testing.T) {
	cfg := DefaultNodeConfig("adv", 1)
	newGen := func() Generator { return CPUBurn(3) }
	pp1, meets1, err := RecommendPp(cfg, newGen, 100, 52.5)
	if err != nil {
		t.Fatal(err)
	}
	pp2, meets2, err := RecommendPp(cfg, newGen, 100, 52.5)
	if err != nil {
		t.Fatal(err)
	}
	if pp1 != pp2 || meets1 != meets2 {
		t.Errorf("same arguments, different answers: Pp %d (meets %v), then %d (meets %v)", pp1, meets1, pp2, meets2)
	}
}

func TestRecommendPpValidation(t *testing.T) {
	cfg := DefaultNodeConfig("advise4", 109)
	if _, _, err := RecommendPp(cfg, nil, 100, 50); err == nil {
		t.Error("nil generator accepted")
	}
}

func TestControllerStatus(t *testing.T) {
	n, err := NewNode("status", 113)
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	ctl, err := NewDynamicFanControl(n, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(CPUBurn(1))
	for i := 0; i < 400; i++ {
		n.Step(250 * time.Millisecond)
		ctl.OnStep(n.Elapsed())
	}
	st := ctl.Fan.Status()
	if st.Pp != 50 {
		t.Errorf("status Pp = %d", st.Pp)
	}
	if st.AvgC < 35 || st.AvgC > 65 {
		t.Errorf("status AvgC = %.1f", st.AvgC)
	}
	if len(st.Actuators) != 1 || st.Actuators[0].Name != "fan" {
		t.Errorf("actuators: %+v", st.Actuators)
	}
	if st.Actuators[0].Moves == 0 {
		t.Error("no moves recorded under cpu-burn")
	}
	if st.String() == "" {
		t.Error("empty status line")
	}
}
