// Package workload supplies the CPU demand that drives every experiment:
// open-loop utilization generators (cpu-burn and the synthetic sudden/
// gradual/jitter primitives of the paper's Figure 2) and closed-loop
// SPMD programs modelled on the NAS Parallel Benchmarks the paper runs
// (BT class B and LU class B on four processes).
//
// Open-loop generators map simulated time to demanded utilization and
// never finish; they exercise the thermal controller. Closed-loop
// programs carry a fixed amount of work whose completion time depends on
// the frequencies the DVFS controller chooses — they are what make the
// performance column of the paper's Table 1 measurable. A program is a
// sequence of iterations, each a compute segment (work in giga-cycles,
// scaling with frequency) followed by a communication segment (fixed
// wall time, near-idle CPU). That two-piece structure is exactly the
// "significant opportunities" the paper's §1 claims parallel applications
// offer: during communication the processor is cool-running regardless
// of frequency.
package workload

import (
	"fmt"
	"time"

	"thermctl/internal/rng"
)

// Generator is an open-loop utilization source.
type Generator interface {
	// Utilization returns the demanded CPU utilization in [0, 1] at
	// simulated time t.
	Utilization(t time.Duration) float64
}

// Constant demands a fixed utilization forever.
type Constant float64

// Utilization implements Generator.
func (c Constant) Utilization(time.Duration) float64 { return clamp01(float64(c)) }

// CPUBurn reproduces the cpu-burn stressor used in the paper's §4.2:
// sustained full utilization with small scheduling noise.
type CPUBurn struct {
	noise *rng.Source
}

// NewCPUBurn returns a cpu-burn generator; noise may be nil for an
// exactly constant load.
func NewCPUBurn(noise *rng.Source) *CPUBurn { return &CPUBurn{noise: noise} }

// Utilization implements Generator.
func (b *CPUBurn) Utilization(time.Duration) float64 {
	u := 1.0
	if b.noise != nil {
		u -= 0.03 * b.noise.Float64()
	}
	return clamp01(u)
}

// Step is the paper's "Type I: sudden change": utilization switches from
// Before to After at time At and stays there.
type Step struct {
	Before, After float64
	At            time.Duration
}

// Utilization implements Generator.
func (s Step) Utilization(t time.Duration) float64 {
	if t < s.At {
		return clamp01(s.Before)
	}
	return clamp01(s.After)
}

// Ramp is the paper's "Type II: gradual change": utilization moves
// linearly from From to To between Start and Start+Over, holding To
// afterwards.
type Ramp struct {
	From, To float64
	Start    time.Duration
	Over     time.Duration
}

// Utilization implements Generator.
func (r Ramp) Utilization(t time.Duration) float64 {
	if t <= r.Start || r.Over <= 0 {
		if t > r.Start {
			return clamp01(r.To)
		}
		return clamp01(r.From)
	}
	frac := float64(t-r.Start) / float64(r.Over)
	if frac >= 1 {
		return clamp01(r.To)
	}
	return clamp01(r.From + frac*(r.To-r.From))
}

// Jitter is the paper's "Type III": short bursts alternating between Low
// and High with the given Period, producing temperature oscillation with
// no sustained trend. The controller must *not* react to it.
type Jitter struct {
	Low, High float64
	Period    time.Duration
}

// Utilization implements Generator.
func (j Jitter) Utilization(t time.Duration) float64 {
	if j.Period <= 0 {
		return clamp01(j.High)
	}
	phase := t % j.Period
	if phase < j.Period/2 {
		return clamp01(j.High)
	}
	return clamp01(j.Low)
}

// Trace replays a recorded utilization trace: sample i applies from
// i·Period to (i+1)·Period, with linear interpolation between samples.
// After the last sample the trace either loops or holds its final
// value. It lets measured production traces (the paper's "range of
// parallel workloads") drive the simulator.
type Trace struct {
	// Samples are utilization values in [0, 1].
	Samples []float64
	// Period is the sample spacing.
	Period time.Duration
	// Loop restarts the trace from the beginning when exhausted.
	Loop bool
}

// Utilization implements Generator.
func (tr Trace) Utilization(t time.Duration) float64 {
	if len(tr.Samples) == 0 || tr.Period <= 0 {
		return 0
	}
	span := time.Duration(len(tr.Samples)) * tr.Period
	if t >= span {
		if !tr.Loop {
			return clamp01(tr.Samples[len(tr.Samples)-1])
		}
		t %= span
	}
	i := int(t / tr.Period)
	frac := float64(t%tr.Period) / float64(tr.Period)
	a := tr.Samples[i]
	b := a
	if i+1 < len(tr.Samples) {
		b = tr.Samples[i+1]
	} else if tr.Loop {
		b = tr.Samples[0]
	}
	return clamp01(a + frac*(b-a))
}

// TimedSegment pairs a generator with how long it runs.
type TimedSegment struct {
	Gen Generator
	For time.Duration
}

// Sequence plays segments back to back; time inside each segment is
// measured from the segment's start. After the last segment the final
// generator keeps running.
type Sequence struct {
	Segments []TimedSegment
}

// Utilization implements Generator.
func (s Sequence) Utilization(t time.Duration) float64 {
	if len(s.Segments) == 0 {
		return 0
	}
	var start time.Duration
	for i, seg := range s.Segments {
		if t < start+seg.For || i == len(s.Segments)-1 {
			return seg.Gen.Utilization(t - start)
		}
		start += seg.For
	}
	return 0
}

// Shared memoizes one time-only generator for every node that shares
// it: OnStep stores g's value at the step's time, once, and
// Utilization returns it to each node asking for that time. Any other
// time falls through to g, so the memo is exact on every path (a node
// stepped outside its cluster, a generator run on another cluster) and
// never relies on nodes stepping in lock-step. g must be a pure
// function of time (see Spec.TimeOnly). OnStep runs in a cluster's
// serial phase and Utilization in its parallel one, so the memo is
// never written while nodes read it.
type Shared struct {
	g Generator
	t time.Duration
	v float64
}

// NewShared wraps g, storing its value at t = 0.
func NewShared(g Generator) *Shared {
	s := &Shared{g: g}
	s.OnStep(0)
	return s
}

// OnStep stores g's value at now, the time every node asks for on the
// next step. Implements the cluster Controller interface.
func (s *Shared) OnStep(now time.Duration) { s.t, s.v = now, s.g.Utilization(now) }

// Utilization implements Generator.
func (s *Shared) Utilization(t time.Duration) float64 {
	if t == s.t {
		return s.v
	}
	return s.g.Utilization(t)
}

// Fig2Profile builds the thermal workload of the paper's Figure 2: a
// sudden load onset, a period of jitter, then a gradual climb — the
// three behaviour types on one timeline.
func Fig2Profile() Generator {
	return Sequence{Segments: []TimedSegment{
		{Gen: Constant(0.05), For: 30 * time.Second},                                              // idle baseline
		{Gen: Step{Before: 0.05, After: 0.95, At: 0}, For: 60 * time.Second},                      // sudden
		{Gen: Jitter{Low: 0.2, High: 0.9, Period: 3 * time.Second}, For: 60 * time.Second},        // jitter
		{Gen: Ramp{From: 0.3, To: 1.0, Start: 0, Over: 70 * time.Second}, For: 120 * time.Second}, // gradual
		{Gen: Constant(0.05), For: 30 * time.Second},
	}}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// --- Closed-loop SPMD programs ---

// Iteration is one timestep of an SPMD program as seen by one process:
// a frequency-scalable compute segment followed by a fixed-time
// communication segment.
type Iteration struct {
	// ComputeGC is the frequency-scalable compute work in giga-cycles.
	// Its duration is ComputeGC / (freqGHz · ComputeUtil).
	ComputeGC float64
	// ComputeUtil is the utilization during compute (1.0 for a fully
	// compute-bound kernel).
	ComputeUtil float64
	// MemSec is time per iteration spent stalled on memory, in seconds.
	// The core is busy (full utilization and power) but DRAM does not
	// speed up with the core clock, so this time is frequency-
	// invariant. It is why NPB kernels slow down by less than the
	// frequency ratio — BT at 2.2 GHz loses ≈6%, not 9% (Table 1) —
	// which in turn is what makes tDVFS's power savings outweigh its
	// delay in the power-delay product.
	MemSec float64
	// CommSec is the communication/synchronization time in seconds; it
	// does not scale with frequency either, but the CPU is near idle.
	CommSec float64
	// CommUtil is the (low) utilization during communication.
	CommUtil float64
}

// Program is a closed-loop parallel application: the per-process
// iteration schedule.
type Program struct {
	// Name identifies the program in reports, e.g. "BT.B.4".
	Name string
	// Iters is the iteration schedule of one process.
	Iters []Iteration
}

// Uniform builds a program of n identical iterations.
func Uniform(name string, n int, it Iteration) Program {
	iters := make([]Iteration, n)
	for i := range iters {
		iters[i] = it
	}
	return Program{Name: name, Iters: iters}
}

// withCommJitter scales every iteration's communication time by a
// deterministic factor in [1-spread, 1+spread] drawn from seed, keeping
// the mean. Real MPI exchanges vary iteration to iteration (network
// contention, progress-engine timing); this variance is also what makes
// utilization-driven daemons like CPUSPEED react intermittently instead
// of every iteration.
func (p Program) withCommJitter(seed uint64, spread float64) Program {
	src := rng.New(seed)
	for i := range p.Iters {
		f := 1 + spread*(2*src.Float64()-1)
		p.Iters[i].CommSec *= f
	}
	return p
}

// BTB4 models NAS BT class B on 4 processes, calibrated to the paper's
// platform: 200 timesteps totalling ≈219 s at 2.4 GHz. BT's ADI solves
// are compute-heavy with a modest communication share, which is what
// lets CPUSPEED's utilization heuristic oscillate (the dips are short
// but visible) while keeping frequency sensitivity high.
func BTB4() Program {
	// Per iteration at 2.4 GHz: scalable compute 1.729 GC / 2.4 =
	// 0.720 s, memory stalls 0.175 s, comm 0.175 s (±30%) → 1.070 s;
	// ×200 ≈ 214 s ideal, ≈219 s measured on the cluster with barrier
	// overhead — the paper's Table 1 baseline. Scaling to 2.2 GHz
	// stretches only the compute part: +6.1%, matching the paper's
	// 233/219.
	return Uniform("BT.B.4", 200, Iteration{
		ComputeGC:   1.729,
		ComputeUtil: 1.0,
		MemSec:      0.175,
		CommSec:     0.175,
		CommUtil:    0.10,
	}).withCommJitter(0xB7, 0.30)
}

// LUB4 models NAS LU class B on 4 processes: ≈250 shorter timesteps with
// a larger communication share (LU's pipelined wavefront exchanges
// boundary data every sweep), totalling ≈210 s at 2.4 GHz. Its average
// power is a little below BT's, which keeps the die hovering around the
// tDVFS threshold in the paper's Figure 8.
func LUB4() Program {
	// Per iteration: scalable compute 1.071 GC / (2.4·0.97) = 0.46 s,
	// memory stalls 0.15 s, comm 0.23 s → 0.84 s; ×250 = 210 s ideal.
	return Uniform("LU.B.4", 250, Iteration{
		ComputeGC:   1.071,
		ComputeUtil: 0.97,
		MemSec:      0.15,
		CommSec:     0.23,
		CommUtil:    0.08,
	}).withCommJitter(0x1C, 0.30)
}

// EPB4 models NAS EP class B on 4 processes: embarrassingly parallel
// random-number generation with essentially no communication and almost
// no memory traffic — the hottest and most frequency-sensitive kernel
// in the suite, ≈90 s at 2.4 GHz.
func EPB4() Program {
	// 16 blocks × (13.4 GC / 2.4 = 5.58 s + 0.02 s mem + 0.02 s comm)
	// ≈ 90 s.
	return Uniform("EP.B.4", 16, Iteration{
		ComputeGC:   13.4,
		ComputeUtil: 1.0,
		MemSec:      0.02,
		CommSec:     0.02,
		CommUtil:    0.10,
	})
}

// CGB4 models NAS CG class B on 4 processes: sparse matrix-vector
// products dominated by irregular memory access, with frequent
// reductions — cool-running and nearly frequency-insensitive, ≈100 s
// at 2.4 GHz.
func CGB4() Program {
	// 75 iterations × (0.5 GC / 2.4 = 0.21 s + 0.9 s mem + 0.23 s comm)
	// ≈ 101 s. Memory stalls dominate: scaling 2.4→2.0 costs only ~3%.
	return Uniform("CG.B.4", 75, Iteration{
		ComputeGC:   0.5,
		ComputeUtil: 0.95,
		MemSec:      0.90,
		CommSec:     0.23,
		CommUtil:    0.08,
	}).withCommJitter(0xC6, 0.30)
}

// MGB4 models NAS MG class B on 4 processes: a short multigrid solve
// with a large communication share from the fine-to-coarse exchanges,
// ≈18 s at 2.4 GHz.
func MGB4() Program {
	// 20 V-cycles × (0.84 GC / 2.4 = 0.35 s + 0.25 s mem + 0.30 s comm)
	// = 18 s.
	return Uniform("MG.B.4", 20, Iteration{
		ComputeGC:   0.84,
		ComputeUtil: 0.97,
		MemSec:      0.25,
		CommSec:     0.30,
		CommUtil:    0.10,
	}).withCommJitter(0x36, 0.30)
}

// TotalComputeGC returns the program's total compute work.
func (p Program) TotalComputeGC() float64 {
	var sum float64
	for _, it := range p.Iters {
		sum += it.ComputeGC
	}
	return sum
}

// IdealSeconds returns the execution time at a fixed frequency with no
// controller interference and perfect balance.
func (p Program) IdealSeconds(freqGHz float64) float64 {
	var sum float64
	for _, it := range p.Iters {
		if it.ComputeUtil > 0 && freqGHz > 0 {
			sum += it.ComputeGC / (freqGHz * it.ComputeUtil)
		}
		sum += it.MemSec + it.CommSec
	}
	return sum
}

// String implements fmt.Stringer.
func (p Program) String() string {
	return fmt.Sprintf("%s (%d iterations, %.1f GC)", p.Name, len(p.Iters), p.TotalComputeGC())
}
