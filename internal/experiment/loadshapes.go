package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/workload"
)

// The load-shapes study sweeps the fan policy Pp across the workload
// plane's generator library — seeded random draws, stepped programs, a
// compressed diurnal cycle and a flash-crowd spike — over a
// heterogeneous fleet declared entirely through the scenario layer:
// standard nodes, a weak-fan group and a hot-inlet group. It is the
// demand-side complement of Fig5: where Fig5 varies the policy under
// one NPB program, this varies the *shape* of open-loop demand and asks
// whether the controller's policy ordering (lower Pp → cooler fleet)
// survives every shape and hardware class at once.

// loadShapesRunFor is each cell's simulated duration, long enough for
// the slowest shape (the diurnal cycle below) to complete two periods.
const loadShapesRunFor = 120 * time.Second

// LoadShapesRow is one (shape, Pp) cell of the sweep.
type LoadShapesRow struct {
	// Shape names the workload spec driving the fleet.
	Shape string
	// Pp is the fan policy of the run.
	Pp int
	// AvgW is the average wall power per node.
	AvgW float64
	// MaxDieC is the hottest physical die temperature observed anywhere
	// in the fleet; GroupMaxC breaks it down per declared node group.
	MaxDieC   float64
	GroupMaxC map[string]float64
	// HotSeconds is the total simulated time any node's physical die
	// spent above the tuning's Tmax.
	HotSeconds float64
}

// LoadShapesResult is the full sweep.
type LoadShapesResult struct {
	Seed   uint64
	Shapes []string
	Pps    []int
	Rows   []LoadShapesRow
}

// loadShapeSpecs returns the shape library of the sweep, in report
// order. Periods are compressed so every shape completes within the
// cell duration; seeds are irrelevant here (Spec.Build derives them
// from the scenario seed).
func loadShapeSpecs() []struct {
	name string
	spec workload.Spec
} {
	return []struct {
		name string
		spec workload.Spec
	}{
		{"random", workload.Spec{Kind: workload.KindRandom, Dist: "heavytail", Alpha: 1.4, Min: 0.05, Max: 1, HoldMS: 2000}},
		{"steps", workload.Spec{Kind: workload.KindSteps, Levels: []float64{0.2, 0.9, 0.5, 1.0}, HoldMS: 10_000, Loop: true}},
		{"diurnal", workload.Spec{Kind: workload.KindDiurnal, Base: 0.45, Amplitude: 0.45, PeriodMS: 60_000}},
		{"flashcrowd", workload.Spec{Kind: workload.KindFlashCrowd, Base: 0.2, Peak: 1, AtMS: 30_000, RiseMS: 2000, DecayMS: 25_000}},
	}
}

// loadShapesFleet is the heterogeneous fleet every cell runs on: four
// standard nodes, two with a crippled fan, two breathing pre-heated
// rack air.
func loadShapesFleet() []config.GroupSpec {
	return []config.GroupSpec{
		{Name: "std", Nodes: 4},
		{Name: "weakfan", Nodes: 2, Hardware: config.HardwareSpec{FanMaxRPM: 2800}},
		{Name: "hotinlet", Nodes: 2, Hardware: config.HardwareSpec{AmbientOffsetC: 6}},
	}
}

// groupTracker samples physical die temperature per declared group and
// accumulates fleet-wide threshold violation time.
type groupTracker struct {
	c      *cluster.Cluster
	groups []config.BuiltGroup
	dt     time.Duration
	maxC   []float64
	tmaxC  float64
	hot    time.Duration
}

// OnStep implements cluster.Controller.
func (t *groupTracker) OnStep(now time.Duration) {
	violated := false
	for gi, g := range t.groups {
		for i := g.First; i < g.First+g.Count; i++ {
			d := t.c.Nodes[i].TrueDieC()
			if d > t.maxC[gi] {
				t.maxC[gi] = d
			}
			if d > t.tmaxC {
				violated = true
			}
		}
	}
	if violated {
		t.hot += t.dt
	}
}

// loadShapesCell runs one (shape, Pp) cell over the heterogeneous fleet.
func loadShapesCell(seed uint64, name string, spec workload.Spec, pp int) (LoadShapesRow, error) {
	tune := config.Default()
	tune.Pp = pp
	s := config.Scenario{
		Name:     fmt.Sprintf("loadshapes-%s-pp%d", name, pp),
		Seed:     seed,
		Workers:  Workers,
		Groups:   loadShapesFleet(),
		Workload: &spec,
		Control:  config.ControlSpec{Fan: "dynamic", Tuning: tune},
	}
	rig, err := s.Build()
	if err != nil {
		return LoadShapesRow{}, err
	}
	c := rig.Cluster
	defer c.Close()

	tr := &groupTracker{
		c:      c,
		groups: rig.Groups,
		dt:     c.Clock.Dt(),
		maxC:   make([]float64, len(rig.Groups)),
		tmaxC:  rig.Scenario.Control.Tuning.TmaxC,
	}
	c.AddController(tr)
	c.RunGenerators(rig.Generators, loadShapesRunFor)

	row := LoadShapesRow{
		Shape:      name,
		Pp:         pp,
		AvgW:       meterAvgW(c),
		HotSeconds: tr.hot.Seconds(),
		GroupMaxC:  make(map[string]float64, len(rig.Groups)),
	}
	for gi, g := range rig.Groups {
		row.GroupMaxC[g.Name] = tr.maxC[gi]
		if tr.maxC[gi] > row.MaxDieC {
			row.MaxDieC = tr.maxC[gi]
		}
	}
	return row, nil
}

// LoadShapes runs the full sweep: every shape in the library at
// Pp ∈ {25, 50, 75} over the heterogeneous fleet.
func LoadShapes(seed uint64) (*LoadShapesResult, error) {
	res := &LoadShapesResult{Seed: seed, Pps: []int{25, 50, 75}}
	for _, sh := range loadShapeSpecs() {
		res.Shapes = append(res.Shapes, sh.name)
		for _, pp := range res.Pps {
			row, err := loadShapesCell(seed, sh.name, sh.spec, pp)
			if err != nil {
				return nil, fmt.Errorf("loadshapes %s pp%d: %w", sh.name, pp, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// row returns the (shape, pp) cell, or a zero row.
func (r *LoadShapesResult) row(shape string, pp int) LoadShapesRow {
	for _, row := range r.Rows {
		if row.Shape == shape && row.Pp == pp {
			return row
		}
	}
	return LoadShapesRow{}
}

// CheckPolicyOrdering asserts the sweep's qualitative claims: for every
// load shape, the cooling-leaning policy (Pp 25) never runs the fleet
// hotter than the performance-leaning one (Pp 75), and the hot-inlet
// group is never cooler than the standard group under the same policy —
// the +6 °C inlet offset must show through every demand shape.
func (r *LoadShapesResult) CheckPolicyOrdering() error {
	const slackC = 0.5 // simulation noise tolerance
	for _, shape := range r.Shapes {
		lo, hi := r.row(shape, 25), r.row(shape, 75)
		if lo.MaxDieC == 0 || hi.MaxDieC == 0 {
			return fmt.Errorf("loadshapes: missing cells for %s", shape)
		}
		if lo.MaxDieC > hi.MaxDieC+slackC {
			return fmt.Errorf("loadshapes %s: Pp 25 ran hotter than Pp 75 (%.2f > %.2f C)",
				shape, lo.MaxDieC, hi.MaxDieC)
		}
		for _, pp := range r.Pps {
			row := r.row(shape, pp)
			if row.GroupMaxC["hotinlet"]+slackC < row.GroupMaxC["std"] {
				return fmt.Errorf("loadshapes %s pp%d: hot-inlet group cooler than standard (%.2f < %.2f C)",
					shape, pp, row.GroupMaxC["hotinlet"], row.GroupMaxC["std"])
			}
		}
	}
	return nil
}

// String renders the sweep table.
func (r *LoadShapesResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Load-shape sweep (seed %d): fan policy across demand shapes on a heterogeneous fleet\n", r.Seed)
	fmt.Fprintf(&sb, "fleet: 4x std, 2x weak-fan (2800 RPM), 2x hot-inlet (+6 C)\n")
	fmt.Fprintf(&sb, "%-12s %4s %8s %10s %9s %9s %9s %9s\n",
		"shape", "Pp", "avg W", "max die C", "std C", "weakfan C", "hotinlet", "hot s")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %4d %8.2f %10.2f %9.2f %9.2f %9.2f %9.2f\n",
			row.Shape, row.Pp, row.AvgW, row.MaxDieC,
			row.GroupMaxC["std"], row.GroupMaxC["weakfan"], row.GroupMaxC["hotinlet"],
			row.HotSeconds)
	}
	return sb.String()
}
