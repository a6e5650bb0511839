package config

// Node groups: the heterogeneous-fleet half of the scenario layer. A
// scenario may partition its fleet into named groups, each with its own
// hardware description (CPU frequency table, fan curve, thermal mass,
// inlet offset) and optionally its own workload spec — the
// heterogeneous-multiprocessor setting of Bhat et al. (PAPERS.md),
// where power-temperature dynamics differ per core class. Groups lay
// out contiguously in declaration order: a scenario with groups
// [{a, 3}, {b, 5}] owns node0..node2 in a and node3..node7 in b, and
// Scenario.Nodes is derived as the sum. Node naming, seeding and the
// struct-of-arrays hot-state layout are untouched — a grouped fleet
// differs from a default one only in the per-node configs handed to
// cluster.NewFromConfigs.

import (
	"fmt"
	"time"

	"thermctl/internal/cpu"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

// GroupSpec declares one node group.
type GroupSpec struct {
	// Name labels the group in reports (required, unique).
	Name string `json:"name"`
	// Nodes is the group size (required, >= 1).
	Nodes int `json:"nodes"`
	// Hardware overrides the default node hardware for this group;
	// zero-valued fields keep the defaults.
	Hardware HardwareSpec `json:"hardware,omitempty"`
	// Workload overrides the scenario-level workload for this group's
	// nodes (generator-driven scenarios only).
	Workload *workload.Spec `json:"workload,omitempty"`
}

// HardwareSpec overrides pieces of a node's hardware description.
// Every field is optional; zero keeps the repository default (the
// paper's Athlon64 platform).
type HardwareSpec struct {
	// FreqsGHz replaces the CPU P-state table with these frequencies,
	// highest first. Voltages are derived from the Athlon64 schedule by
	// linear interpolation over its 1.0–2.4 GHz / 1.10–1.40 V span.
	FreqsGHz []float64 `json:"freqs_ghz,omitempty"`
	// FanMaxRPM, FanMaxPowerW, FanTimeConstMS and FanFloorFrac reshape
	// the fan: top speed, electrical draw at full speed, rotor lag and
	// the minimum spin fraction.
	FanMaxRPM      float64 `json:"fan_max_rpm,omitempty"`
	FanMaxPowerW   float64 `json:"fan_max_power_w,omitempty"`
	FanTimeConstMS int     `json:"fan_time_const_ms,omitempty"`
	FanFloorFrac   float64 `json:"fan_floor_frac,omitempty"`
	// CdieJPerK, CsinkJPerK and RjsKPerW reshape the RC thermal path:
	// die and heatsink heat capacities and the junction-to-sink
	// resistance.
	CdieJPerK  float64 `json:"cdie_j_per_k,omitempty"`
	CsinkJPerK float64 `json:"csink_j_per_k,omitempty"`
	RjsKPerW   float64 `json:"rjs_k_per_w,omitempty"`
	// AmbientOffsetC shifts the group's inlet temperature (rack hot
	// spots). May be negative.
	AmbientOffsetC float64 `json:"ambient_offset_c,omitempty"`
	// BaseW replaces the constant platform power.
	BaseW float64 `json:"base_w,omitempty"`
}

// The Athlon64 voltage schedule's corners, used to derive a plausible
// voltage for an arbitrary frequency.
const (
	athlonLoGHz, athlonLoV = 1.0, 1.10
	athlonHiGHz, athlonHiV = 2.4, 1.40
)

// voltageFor interpolates the Athlon64 voltage schedule at f GHz,
// clamped to the schedule's corners so exotic tables stay physical.
func voltageFor(f float64) float64 {
	v := athlonLoV + (f-athlonLoGHz)/(athlonHiGHz-athlonLoGHz)*(athlonHiV-athlonLoV)
	if v < athlonLoV {
		v = athlonLoV
	}
	if v > athlonHiV {
		v = athlonHiV
	}
	return v
}

// validate reports the first invalid hardware field.
func (h *HardwareSpec) validate() error {
	for i, f := range h.FreqsGHz {
		if f <= 0 {
			return fmt.Errorf("freqs_ghz[%d] = %v: frequencies must be positive", i, f)
		}
		if i > 0 && f >= h.FreqsGHz[i-1] {
			return fmt.Errorf("freqs_ghz[%d] = %v: table must be strictly descending", i, f)
		}
	}
	if h.FanMaxRPM < 0 || h.FanMaxPowerW < 0 || h.FanTimeConstMS < 0 {
		return fmt.Errorf("fan parameters must be >= 0")
	}
	if int64(h.FanTimeConstMS) > workload.MaxMS {
		return fmt.Errorf("fan_time_const_ms %d: longer than %d", h.FanTimeConstMS, workload.MaxMS)
	}
	if h.FanFloorFrac < 0 || h.FanFloorFrac >= 1 {
		return fmt.Errorf("fan_floor_frac %v outside [0, 1)", h.FanFloorFrac)
	}
	if h.CdieJPerK < 0 || h.CsinkJPerK < 0 || h.RjsKPerW < 0 {
		return fmt.Errorf("thermal parameters must be >= 0")
	}
	if h.BaseW < 0 {
		return fmt.Errorf("base_w %v: must be >= 0", h.BaseW)
	}
	return nil
}

// apply overrides cfg's hardware with the spec's non-zero fields. cfg
// arrives fully defaulted (node.DefaultConfig), so partial overrides
// compose with the standard platform rather than zeroing siblings.
func (h *HardwareSpec) apply(cfg *node.Config) {
	if len(h.FreqsGHz) > 0 {
		table := make([]cpu.PState, len(h.FreqsGHz))
		for i, f := range h.FreqsGHz {
			table[i] = cpu.PState{FreqGHz: f, Voltage: voltageFor(f)}
		}
		cfg.CPU.Table = table
	}
	if h.FanMaxRPM > 0 {
		cfg.Fan.MaxRPM = h.FanMaxRPM
	}
	if h.FanMaxPowerW > 0 {
		cfg.Fan.MaxPower = h.FanMaxPowerW
	}
	if h.FanTimeConstMS > 0 {
		cfg.Fan.TimeConst = time.Duration(h.FanTimeConstMS) * time.Millisecond
	}
	if h.FanFloorFrac > 0 {
		cfg.Fan.FloorFrac = h.FanFloorFrac
	}
	if h.CdieJPerK > 0 {
		cfg.Thermal.CdieJPerK = h.CdieJPerK
	}
	if h.CsinkJPerK > 0 {
		cfg.Thermal.CsinkJPerK = h.CsinkJPerK
	}
	if h.RjsKPerW > 0 {
		cfg.Thermal.RjsKPerW = h.RjsKPerW
	}
	if h.AmbientOffsetC != 0 {
		cfg.AmbientOffsetC = h.AmbientOffsetC
	}
	if h.BaseW > 0 {
		cfg.BaseW = h.BaseW
	}
}

// BuiltGroup locates one group inside a built fleet: its nodes are
// Cluster.Nodes[First : First+Count].
type BuiltGroup struct {
	Name  string
	First int
	Count int
}

// nodeConfigs expands the scenario's groups (or its flat Nodes count)
// into per-node configurations. Naming and seeding are identical to
// cluster.New — "node<i>" with rng.Mix(seed, i) — so a scenario without
// hardware overrides builds the exact same fleet with or without
// groups.
func (s *Scenario) nodeConfigs() ([]node.Config, []BuiltGroup) {
	cfgs := make([]node.Config, 0, s.Nodes)
	var groups []BuiltGroup
	if len(s.Groups) == 0 {
		for i := 0; i < s.Nodes; i++ {
			cfgs = append(cfgs, node.DefaultConfig(fmt.Sprintf("node%d", i), rng.Mix(s.Seed, uint64(i))))
		}
		return cfgs, nil
	}
	i := 0
	for gi := range s.Groups {
		g := &s.Groups[gi]
		groups = append(groups, BuiltGroup{Name: g.Name, First: i, Count: g.Nodes})
		for k := 0; k < g.Nodes; k++ {
			cfg := node.DefaultConfig(fmt.Sprintf("node%d", i), rng.Mix(s.Seed, uint64(i)))
			g.Hardware.apply(&cfg)
			cfgs = append(cfgs, cfg)
			i++
		}
	}
	return cfgs, groups
}

// workloadSalt separates the workload plane's seed family from the
// node noise family: node i's sensor streams derive from
// rng.Mix(seed, i), so handing the same values to stateful generators
// would correlate demand with measurement noise. Build mixes the
// scenario seed with this salt first.
const workloadSalt = 0x776b6c64 // "wkld"

// HasWorkload reports whether the scenario declares an open-loop
// workload anywhere — at the scenario level or on any group. When
// false (and no program is set), Build leaves Rig.Generators nil and
// the caller attaches its own generators, the pre-plane contract.
func (s *Scenario) HasWorkload() bool {
	if s.Workload != nil {
		return true
	}
	for i := range s.Groups {
		if s.Groups[i].Workload != nil {
			return true
		}
	}
	return false
}

// buildGenerators instantiates one generator per node from the
// scenario's workload plane: each group's workload spec wins over the
// scenario-level one for that group's nodes. Returns nil when the
// scenario declares no workload anywhere (the caller attaches its own,
// the pre-plane contract). Node i's generator derives from
// rng.Mix(Mix(seed, workloadSalt), i) regardless of grouping, so
// regrouping a fleet never reseeds its demand.
//
// A time-only spec (workload.Spec.TimeOnly) is one curve for every
// node that uses it, so its nodes share one generator behind a
// workload.Shared memo — one per distinct *Spec: per group, or one for
// the scenario-level spec — returned in shared for Build to attach as
// cluster controllers. The node seed does not enter a time-only
// generator, so the shared one is the one node-by-node building would
// give each of them.
func (s *Scenario) buildGenerators() (gens []workload.Generator, shared []*workload.Shared, err error) {
	specFor := make([]*workload.Spec, s.Nodes)
	any := false
	if len(s.Groups) == 0 {
		for k := range specFor {
			specFor[k] = s.Workload
		}
		any = s.Workload != nil
	} else {
		i := 0
		for gi := range s.Groups {
			g := &s.Groups[gi]
			spec := g.Workload
			if spec == nil {
				spec = s.Workload
			}
			for k := 0; k < g.Nodes; k++ {
				specFor[i] = spec
				i++
			}
			any = any || spec != nil
		}
	}
	if !any {
		return nil, nil, nil
	}
	family := rng.Mix(s.Seed, workloadSalt)
	memo := map[*workload.Spec]*workload.Shared{}
	gens = make([]workload.Generator, s.Nodes)
	for n := 0; n < s.Nodes; n++ {
		spec := specFor[n]
		if spec == nil {
			// Mixed fleets where only some groups declare a workload:
			// the others idle at zero utilization rather than nil (nil
			// would hold whatever generator the node had before).
			gens[n] = workload.Constant(0)
			continue
		}
		if m, ok := memo[spec]; ok {
			gens[n] = m
			continue
		}
		g, err := spec.Build(family, n)
		if err != nil {
			return nil, nil, fmt.Errorf("config: node %d workload: %w", n, err)
		}
		if spec.TimeOnly() {
			m := workload.NewShared(g)
			memo[spec] = m
			shared = append(shared, m)
			g = m
		}
		gens[n] = g
	}
	return gens, shared, nil
}
