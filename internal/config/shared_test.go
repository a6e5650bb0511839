package config

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

// timeOnlySpecs is one spec of every time-only kind, plus a sequence
// of them, each shaped to move within sharedRunFor.
func timeOnlySpecs() []workload.Spec {
	return []workload.Spec{
		{Kind: workload.KindConstant, Util: 0.7},
		{Kind: workload.KindStep, Before: 0.1, After: 0.9, AtMS: 7000},
		{Kind: workload.KindRamp, From: 0.2, To: 1, StartMS: 3000, OverMS: 30000},
		{Kind: workload.KindJitter, Low: 0.2, High: 0.9, PeriodMS: 3000},
		{Kind: workload.KindTrace, Samples: []float64{0.1, 0.8, 0.3, 0.95}, PeriodMS: 4500, Loop: true},
		{Kind: workload.KindSteps, Levels: []float64{0.1, 0.5, 0.9, 0.4}, HoldMS: 6000, Loop: true},
		{Kind: workload.KindDiurnal, Base: 0.5, Amplitude: 0.45, PeriodMS: 20000, PhaseMS: 1234},
		{Kind: workload.KindFlashCrowd, Base: 0.2, Peak: 0.95, AtMS: 5000, RiseMS: 2000, DecayMS: 9000},
		{Kind: workload.KindFig2},
		{Kind: workload.KindSequence, Segments: []workload.SegmentSpec{
			{Spec: workload.Spec{Kind: workload.KindDiurnal, Base: 0.4, Amplitude: 0.3, PeriodMS: 7000}, ForMS: 12000},
			{Spec: workload.Spec{Kind: workload.KindJitter, Low: 0.1, High: 0.8, PeriodMS: 1500}, ForMS: 9000},
			{Spec: workload.Spec{Kind: workload.KindFig2}, ForMS: 10000},
		}},
	}
}

const sharedRunFor = 45 * time.Second

// sharedScenario is a grouped fleet on spec: two groups on the
// scenario-level spec and one with its own copy of it, sized so the
// cluster steps on a pool of two.
func sharedScenario(spec workload.Spec) Scenario {
	own := spec
	return Scenario{
		Seed:     29,
		Workers:  2,
		Workload: &spec,
		Groups: []GroupSpec{
			{Name: "std", Nodes: 14},
			{Name: "hot", Nodes: 10, Hardware: HardwareSpec{AmbientOffsetC: 5}},
			{Name: "own", Nodes: 12, Hardware: HardwareSpec{FanMaxRPM: 3000}, Workload: &own},
		},
		Control: ControlSpec{Fan: "dynamic", DVFS: "tdvfs", Tuning: Default()},
	}
}

func stateBits(rig *Rig) []uint64 {
	var out []uint64
	for _, n := range rig.Cluster.Nodes {
		out = append(out,
			math.Float64bits(n.TrueDieC()),
			math.Float64bits(n.Sensor.Read()),
			math.Float64bits(n.Fan.Duty()),
			math.Float64bits(n.CPU.FreqGHz()),
			math.Float64bits(n.Meter.CPUEnergyJ()),
			math.Float64bits(n.Utilization()))
	}
	return out
}

// TestSharedDemandMatchesPerNodeGenerators runs each time-only kind
// through Build's shared memos and through per-node generators built
// node by node, as Build did before the memo: the trajectories must be
// bit-identical.
func TestSharedDemandMatchesPerNodeGenerators(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	for _, spec := range timeOnlySpecs() {
		t.Run(spec.Kind, func(t *testing.T) {
			shared, err := sharedScenario(spec).Build()
			if err != nil {
				t.Fatal(err)
			}
			defer shared.Cluster.Close()
			if shared.Cluster.Workers() != 2 {
				t.Fatalf("workers = %d, want a pool of 2", shared.Cluster.Workers())
			}
			memos := map[*workload.Shared]int{}
			for i, g := range shared.Generators {
				m, ok := g.(*workload.Shared)
				if !ok {
					t.Fatalf("node %d: generator %T, want a shared memo", i, g)
				}
				memos[m]++
			}
			if len(memos) != 2 {
				t.Fatalf("%d distinct memos, want 2 (scenario spec, group spec)", len(memos))
			}

			sc := sharedScenario(spec)
			ref, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Cluster.Close()
			family := rng.Mix(ref.Scenario.Seed, workloadSalt)
			perNode := make([]workload.Generator, len(ref.Cluster.Nodes))
			for n := range perNode {
				spec := ref.Scenario.Workload
				if n >= 24 {
					spec = ref.Scenario.Groups[2].Workload
				}
				if perNode[n], err = spec.Build(family, n); err != nil {
					t.Fatal(err)
				}
			}

			shared.Cluster.RunGenerators(shared.Generators, sharedRunFor)
			ref.Cluster.RunGenerators(perNode, sharedRunFor)
			got, want := stateBits(shared), stateBits(ref)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d field %d: %x with the memo, %x per node", i/6, i%6, got[i], want[i])
				}
			}
			// Off its stored step the memo falls back to the generator.
			for _, at := range []time.Duration{0, 1250 * time.Millisecond, sharedRunFor - time.Second, sharedRunFor + time.Hour} {
				if a, b := shared.Generators[0].Utilization(at), perNode[0].Utilization(at); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("memo at %v = %v, generator %v", at, a, b)
				}
			}
		})
	}
}

func TestSeededKindsNeverShared(t *testing.T) {
	seeded := []workload.Spec{
		{Kind: workload.KindRandom, Dist: "exponential", Mean: 0.4},
		{Kind: workload.KindCPUBurn},
		{Kind: workload.KindSequence, Segments: []workload.SegmentSpec{
			{Spec: workload.Spec{Kind: workload.KindDiurnal, Base: 0.4, Amplitude: 0.3, PeriodMS: 7000}, ForMS: 12000},
			{Spec: workload.Spec{Kind: workload.KindRandom}, ForMS: 9000},
		}},
	}
	for _, spec := range seeded {
		t.Run(fmt.Sprint(spec.Kind, len(spec.Segments)), func(t *testing.T) {
			if spec.TimeOnly() {
				t.Fatalf("%s reports time-only", spec.Kind)
			}
			rig, err := sharedScenario(spec).Build()
			if err != nil {
				t.Fatal(err)
			}
			defer rig.Cluster.Close()
			seen := map[workload.Generator]bool{}
			for i, g := range rig.Generators {
				if _, ok := g.(*workload.Shared); ok {
					t.Fatalf("node %d: %s demand shared through a memo", i, spec.Kind)
				}
				if p, ok := g.(*workload.CPUBurn); ok {
					if seen[p] {
						t.Fatalf("node %d: cpuburn instance shared with another node", i)
					}
					seen[p] = true
				}
			}
		})
	}
}
