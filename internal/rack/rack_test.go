package rack

import (
	"fmt"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/core"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

func newNodes(t *testing.T, count int) []*node.Node {
	t.Helper()
	var nodes []*node.Node
	for i := 0; i < count; i++ {
		n, err := node.New(node.DefaultConfig(fmt.Sprintf("slot%d", i), uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return nodes
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Default(), nil); err == nil {
		t.Error("empty rack accepted")
	}
	nodes := newNodes(t, 1)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"recirc fraction 1.0", func(c *Config) { c.RecircFrac = 1.0 }},
		{"negative recirc fraction", func(c *Config) { c.RecircFrac = -0.1 }},
		{"negative exhaust rise", func(c *Config) { c.ExhaustKPerW = -0.06 }},
		{"zero mixing time constant", func(c *Config) { c.MixTimeConst = 0 }},
		{"negative mixing time constant", func(c *Config) { c.MixTimeConst = -time.Second }},
	}
	for _, tc := range cases {
		bad := Default()
		tc.mutate(&bad)
		if _, err := New(bad, nodes); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestBottomSlotSeesSupplyAir(t *testing.T) {
	nodes := newNodes(t, 4)
	r, err := New(Default(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.InletC(0); got != Default().SupplyC {
		t.Errorf("bottom inlet = %v, want supply %v", got, Default().SupplyC)
	}
}

func TestInletGradientGrowsUpward(t *testing.T) {
	nodes := newNodes(t, 4)
	for _, n := range nodes {
		n.Settle(1) // hot exhaust everywhere
	}
	r, err := New(Default(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if r.InletC(i) <= r.InletC(i-1) {
			t.Errorf("inlet not increasing with slot: %v then %v", r.InletC(i-1), r.InletC(i))
		}
	}
	// A loaded 100 W node raises the next slot's inlet by
	// 0.3·0.06·100 ≈ 1.8 °C.
	d := r.InletC(1) - r.InletC(0)
	if d < 1 || d > 3 {
		t.Errorf("one-slot recirculation = %.2f °C, want ≈1.8", d)
	}
}

func TestMixingLag(t *testing.T) {
	nodes := newNodes(t, 2)
	r, err := New(Default(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	cold := r.InletC(1)
	// Load the bottom node and step the rack for five seconds: the top
	// inlet moves toward the hotter target but must not jump there.
	nodes[0].SetGenerator(workload.Constant(1))
	dt := 250 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		for _, n := range nodes {
			n.Step(dt)
		}
		now += dt
		r.OnStep(now)
	}
	warmed := r.InletC(1)
	if warmed <= cold {
		t.Fatal("top inlet did not warm after loading the bottom node")
	}
	target := r.targets()[1]
	if warmed >= target {
		t.Errorf("inlet jumped to target instantly: %v vs target %v", warmed, target)
	}
}

func TestHotSlotRunsHotterWithoutControl(t *testing.T) {
	nodes := newNodes(t, 4)
	c, err := cluster.NewWithNodes(nodes, cluster.DefaultDt)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(1)
	r, err := New(Default(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	c.AddController(r)
	c.RunGenerator(workload.Constant(1), 3*time.Minute)
	bottom, top := nodes[0].TrueDieC(), nodes[3].TrueDieC()
	if top-bottom < 1.5 {
		t.Errorf("top slot only %.2f °C hotter than bottom; recirculation too weak", top-bottom)
	}
}

// TestUnifiedControlCompensatesHotSlot is the payoff: against a fixed
// equal fan speed on every slot, per-node dynamic control drives the
// hot slot's fan harder and brings the hottest die far below the
// fixed-duty case.
func TestUnifiedControlCompensatesHotSlot(t *testing.T) {
	run := func(dynamic bool) (topDieC, topDuty, bottomDuty float64) {
		nodes := newNodes(t, 4)
		c, err := cluster.NewWithNodes(nodes, cluster.DefaultDt)
		if err != nil {
			t.Fatal(err)
		}
		c.Settle(1)
		r, err := New(Default(), nodes)
		if err != nil {
			t.Fatal(err)
		}
		c.AddController(r)
		for i, n := range nodes {
			if dynamic {
				ctl, err := core.NewController(core.DefaultConfig(50),
					core.SysfsTemp(n.FS, n.Hwmon.TempInput),
					core.NewFanActuator(core.NewSysfsFanPort(n.FS, n.Hwmon), 100))
				if err != nil {
					t.Fatal(err)
				}
				c.AddNodeController(i, ctl.Binding())
			} else {
				// Equal fixed duty on every slot: the gradient hits
				// the dies one to one.
				port := core.NewSysfsFanPort(n.FS, n.Hwmon)
				if err := port.SetDutyPercent(45); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.RunGenerator(workload.Constant(1), 6*time.Minute)
		return nodes[3].TrueDieC(), nodes[3].Fan.Duty(), nodes[0].Fan.Duty()
	}

	fixedTop, _, _ := run(false)
	dynTop, topDuty, bottomDuty := run(true)
	if dynTop >= fixedTop-3 {
		t.Errorf("dynamic control left the hot slot at %.2f °C vs %.2f fixed-duty", dynTop, fixedTop)
	}
	if topDuty <= bottomDuty {
		t.Errorf("hot slot's fan (%.1f%%) not working harder than the cool slot's (%.1f%%)",
			topDuty, bottomDuty)
	}
}
