// Package cluster runs a set of simulated nodes in lock-step and
// executes barrier-synchronized SPMD programs across them — the
// four-node power-aware cluster of the paper's evaluation.
//
// During a program run, every process is in one of three phases per
// iteration: computing (full utilization, progress proportional to its
// own frequency), waiting at the barrier (near idle — a fast node blocks
// in MPI_Wait while slower or down-clocked peers finish), or
// communicating (fixed wall time, near idle). This is where DVFS
// decisions become visible as execution time: down-clock one node and
// every node's iteration stretches.
//
// Phase transitions are handled with sub-step precision — a process that
// exhausts its compute work 12 ms into a 50 ms step spends the remaining
// 38 ms at the barrier — so execution-time measurements are accurate to
// well under one step per iteration: residual compute worth less than
// the 1 ns slice resolution is carried into the next round rather than
// dropped. Only the barrier *release* is evaluated at step boundaries,
// since it is a global decision.
//
// # Hierarchical stepping
//
// The step loop is hierarchical, mirroring ControlPULP's fast per-node
// inner loop under a slower cluster-level outer loop. Controllers whose
// policy reads only one node's sensors and actuates only that node —
// the common case: a fan PID, a tDVFS daemon, their hybrid — are
// attached with AddNodeController and run inside the *parallel* phase,
// sharded with the node advance. Cross-node work — rack coupling,
// fault-plane replay, barrier release, fleet statistics — is attached
// with AddController and runs in the serial phases around it. See
// DESIGN.md §11.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"thermctl/internal/metrics"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/simclock"
	"thermctl/internal/workload"
)

// DefaultDt is the simulation step used by the experiments: fine enough
// that barrier-release quantization stays below ~3% of an iteration.
const DefaultDt = 50 * time.Millisecond

// Controller is anything that observes/actuates nodes periodically: fan
// controllers, DVFS daemons, the unified controller. OnStep is called
// once per simulation step after the node models have advanced;
// implementations decide internally whether it is time to sample (e.g.
// every 250 ms).
type Controller interface {
	OnStep(now time.Duration)
}

// Scheduled is an optional Controller extension for node-local
// controllers that act on a schedule of their own. NextDue reports the
// earliest simulation time at which the controller's next OnStep can
// do anything: a call at any earlier time must be a no-op, so the
// cluster may skip it. 0 means due every step. Contract: NextDue may
// move only inside OnStep — the cluster folds it after each call and
// trusts it until the controller next runs.
type Scheduled interface {
	NextDue() time.Duration
}

// ControllerFunc adapts a function to Controller.
type ControllerFunc func(now time.Duration)

// OnStep implements Controller.
func (f ControllerFunc) OnStep(now time.Duration) { f(now) }

// Cluster is a fixed set of nodes sharing a simulation clock.
type Cluster struct {
	Nodes []*node.Node
	Clock *simclock.Clock

	// Controller phases. pre and post run single-threaded every step;
	// locals[i] runs inside the parallel phase on whichever worker
	// advances node i. AddController fills pre until the first
	// AddNodeController call and post afterwards, so the wiring order
	// "globals, then per-node controllers, then trailing globals"
	// (probes and the fault plane first, rack statistics last) executes
	// in exactly the order it was attached, as it did when all
	// controllers shared one serial list.
	pre    []Controller
	locals [][]localCtl
	post   []Controller

	// Due-time rule for the node-local phase: the control sweep is
	// dispatched only on steps with now >= ctlDue (never while no
	// node-local controller is attached), and inside it each
	// controller runs only from its own NextDue on. Each node's local
	// job folds its controllers' NextDue into localDue[i] inside the
	// sweep; the serial phase takes the minimum afterwards.
	// AddNodeController lowers ctlDue to the new controller's NextDue
	// (0 for one without), so it runs on the first step it is due.
	localDue []time.Duration
	ctlDue   time.Duration

	// WaitUtil is the utilization of a process blocked at a barrier: an
	// MPI rank in a blocking wait is near idle but not at zero.
	WaitUtil float64

	// workers and pool implement sharded parallel node advancement
	// (see SetWorkers in shard.go). workers is 1 and pool nil until
	// SetWorkers asks for more.
	workers int
	pool    *shardPool

	// met holds the optional metric handles (see InstrumentMetrics in
	// metrics.go); every handle is nil-safe.
	met clusterMetrics

	// The per-round jobs are wired once at construction so the hot
	// loops stay allocation-free (a closure literal inside Step or
	// RunProgram would allocate every round — thermlint's hotalloc
	// analyzer watches both, via the Step and RunProgram call-graph
	// roots). Each job reads its round parameters from the fields
	// below, which the single-threaded code refreshes before dispatch.
	stepJob  func(i int)
	localJob func(i int)
	progJob  func(i int)
	stepDt   time.Duration
	ctlNow   time.Duration
	progDt   time.Duration
	prog     workload.Program

	// progStates holds one SPMD process slot per node, reused across
	// RunProgram calls (the slice length is fixed by the node count).
	progStates []procState

	// stop, when set, aborts RunProgram/RunGenerator at the next round
	// boundary (see SetStop).
	stop <-chan struct{}
}

// never is a due time no step reaches: that of a node without
// node-local controllers, and ctlDue's until one is attached.
const never = time.Duration(math.MaxInt64)

// localCtl is one node-local controller with its Scheduled view,
// resolved once at attachment (nil: due every step), and the NextDue
// it last reported: at attachment, then after each call.
type localCtl struct {
	ctl   Controller
	sched Scheduled
	due   time.Duration
}

// New builds a cluster of n default nodes stepping at dt. Node i is
// named "node<i>" and seeded deterministically from seed: per-node
// seeds are derived with rng.Mix, so clusters built from different
// master seeds never share a node noise stream (an additive offset
// would collide whenever two seeds differ by a multiple of the
// stride).
func New(n int, dt time.Duration, seed uint64) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	cfgs := make([]node.Config, n)
	for i := 0; i < n; i++ {
		cfgs[i] = node.DefaultConfig(fmt.Sprintf("node%d", i), rng.Mix(seed, uint64(i)))
	}
	return NewFromConfigs(cfgs, dt)
}

// NewFromConfigs builds a cluster from per-node configurations — the
// constructor for heterogeneous fleets, where node groups differ in
// CPU frequency table, fan curve or thermal mass (config.Scenario's
// "groups" block lands here). Any Block pointers in the configs are
// overridden: the cluster allocates one contiguous []node.Block, so the
// node step sweep walks the blocks in order instead of chasing
// per-node heap islands. The node API is unchanged — each node's
// devices live in its block.
func NewFromConfigs(cfgs []node.Config, dt time.Duration) (*Cluster, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	blocks := make([]node.Block, len(cfgs))
	nodes := make([]*node.Node, 0, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i]
		cfg.Block = &blocks[i]
		nd, err := node.New(cfg)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return NewWithNodes(nodes, dt)
}

// NewWithNodes builds a cluster from pre-constructed nodes (e.g. with
// per-slot ambient offsets modelling rack hot spots), stepping at dt.
func NewWithNodes(nodes []*node.Node, dt time.Duration) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	c := &Cluster{
		Clock:      simclock.NewClock(dt),
		Nodes:      nodes,
		WaitUtil:   0.06,
		workers:    1,
		ctlDue:     never,
		progStates: make([]procState, len(nodes)),
	}
	// The per-round jobs are built once here: a closure literal in
	// Step/RunProgram would allocate on every round (hotalloc). Each
	// reads its round parameters from cluster fields refreshed before
	// dispatch.
	c.stepJob = func(i int) { c.Nodes[i].Step(c.stepDt) }
	c.localJob = func(i int) {
		due := never
		ls := c.locals[i]
		for k := range ls {
			l := &ls[k]
			if c.ctlNow >= l.due {
				l.ctl.OnStep(c.ctlNow)
				if l.sched != nil {
					l.due = l.sched.NextDue()
				}
			}
			due = min(due, l.due)
		}
		c.localDue[i] = due
	}
	c.progJob = func(i int) { c.advanceProc(c.Nodes[i], &c.progStates[i], c.prog, c.progDt) }
	return c, nil
}

// AddController registers a cluster-level controller to be invoked
// single-threaded every step: before the node-local phase when attached
// before the first AddNodeController call, after it otherwise. Use this
// for anything that observes or actuates more than one node (rack
// coupling, fleet statistics, the fault plane).
func (c *Cluster) AddController(ctl Controller) {
	if c.locals == nil {
		c.pre = append(c.pre, ctl)
		return
	}
	c.post = append(c.post, ctl)
}

// AddNodeController registers a node-local controller: one whose policy
// reads only node i's sensors and actuates only node i (a fan PID, a
// tDVFS daemon, their hybrid). It runs inside the parallel phase on
// whichever worker owns node i that step, after every node has
// advanced and after the pre-phase cluster controllers; per-node
// attachment order is preserved. It must not touch any other node or
// shared mutable state — that is what keeps traces byte-identical
// across worker counts. Panics if i is out of range.
//
// A controller that implements Scheduled is called only on steps at or
// after its NextDue; any other controller is due every step. The local
// sweep is not dispatched on steps where no node-local controller is
// due; a controller attached between steps runs on the first step it
// is due, the next one for a controller without NextDue.
func (c *Cluster) AddNodeController(i int, ctl Controller) {
	if i < 0 || i >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: AddNodeController index %d out of range [0,%d)", i, len(c.Nodes)))
	}
	if c.locals == nil {
		c.locals = make([][]localCtl, len(c.Nodes))
		c.localDue = make([]time.Duration, len(c.Nodes))
	}
	l := localCtl{ctl: ctl}
	if sched, ok := ctl.(Scheduled); ok {
		l.sched, l.due = sched, sched.NextDue()
	}
	c.locals[i] = append(c.locals[i], l)
	c.ctlDue = min(c.ctlDue, l.due)
}

// SetStop arms an external cancellation signal: once stop is closed,
// RunProgram and RunGenerator return at the next round boundary (a
// context's Done channel is the intended argument). The check runs in
// the serial phase between rounds, so a canceled run is a clean prefix
// of the uncanceled one — the simulated state never stops mid-step.
// Pass nil to disarm.
func (c *Cluster) SetStop(stop <-chan struct{}) { c.stop = stop }

// stopRequested polls the stop channel without blocking.
func (c *Cluster) stopRequested() bool {
	if c.stop == nil {
		return false
	}
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// Settle equilibrates every node at the given utilization.
func (c *Cluster) Settle(util float64) {
	for _, n := range c.Nodes {
		n.Settle(util)
	}
}

// tickControllers runs the control half of a step: advance the clock,
// then the hierarchical controller phases — cluster-level pre
// controllers serially, node-local controllers sharded across the
// workers when any is due, cluster-level post controllers serially.
func (c *Cluster) tickControllers() {
	c.Clock.Step()
	now := c.Clock.Now()
	for _, ctl := range c.pre {
		ctl.OnStep(now)
	}
	if now >= c.ctlDue {
		c.ctlNow = now
		c.advanceNodes(c.localJob)
		c.ctlDue = never
		for _, due := range c.localDue {
			c.ctlDue = min(c.ctlDue, due)
		}
	}
	for _, ctl := range c.post {
		ctl.OnStep(now)
	}
	c.met.steps.Inc()
}

// Step advances the cluster by one clock step, hierarchically: every
// node's device models advance — in parallel across the workers when
// SetWorkers configured a pool — then the cluster-level pre controllers
// run single-threaded, then the node-local controllers run sharded like
// the advance, then the cluster-level post controllers run
// single-threaded. Every serial phase begins only after the preceding
// parallel sweep has fully drained, so cluster controllers observe
// every node at the same step boundary, exactly as under serial
// stepping.
func (c *Cluster) Step() {
	c.stepDt = c.Clock.Dt()
	if c.met.timed() {
		defer c.met.stepSeconds.ObserveSince(metrics.Now())
	}
	c.advanceNodes(c.stepJob)
	c.tickControllers()
}

// RunGenerator attaches g to every node and steps for d. Because one
// instance is shared by the whole fleet, g must be stateless — see
// SetWorkers for the contract. For per-node instances (stateful
// generators, or independent seeded demand per node) use
// RunGenerators; the config layer's workload spec builds that slice.
func (c *Cluster) RunGenerator(g workload.Generator, d time.Duration) RunResult {
	for _, n := range c.Nodes {
		n.SetGenerator(g)
	}
	return c.runSteps(d)
}

// ErrGeneratorCount reports a RunGenerators slice whose length does not
// match the node count.
var ErrGeneratorCount = errors.New("cluster: RunGenerators needs exactly one generator per node")

// RunGenerators attaches gens[i] to node i and steps for d. This is
// the open-loop core path: every node gets its own generator instance,
// so stateful generators (CPUBurn's noise stream) and per-node seeded
// demand are safe under parallel stepping — node i's generator is only
// ever evaluated by the worker that owns node i that sweep, and
// trajectories stay byte-identical across worker counts.
func (c *Cluster) RunGenerators(gens []workload.Generator, d time.Duration) RunResult {
	if len(gens) != len(c.Nodes) {
		return RunResult{Err: ErrGeneratorCount}
	}
	for i, n := range c.Nodes {
		n.SetGenerator(gens[i])
	}
	return c.runSteps(d)
}

// runSteps advances the cluster until d of simulated time has elapsed
// or the stop signal armed with SetStop fires at a round boundary.
func (c *Cluster) runSteps(d time.Duration) RunResult {
	start := c.Clock.Now()
	deadline := start + d
	for c.Clock.Now() < deadline {
		if c.stopRequested() {
			return RunResult{ExecTime: c.Clock.Now() - start, Canceled: true}
		}
		c.Step()
	}
	return RunResult{ExecTime: c.Clock.Now() - start}
}

// phase of one SPMD process within the current iteration.
type phase int

const (
	phaseCompute phase = iota
	phaseMem
	phaseBarrier
	phaseComm
	phaseDone
)

type procState struct {
	iter     int
	ph       phase
	workLeft float64       // giga-cycles remaining in this iteration's compute
	memLeft  time.Duration // memory-stall time remaining (busy, non-scaling)
	commLeft time.Duration
}

// RunResult summarizes one program execution.
type RunResult struct {
	// ExecTime is the wall (simulated) time from start to the last
	// process finishing.
	ExecTime time.Duration
	// TimedOut reports whether the run hit maxTime before completion.
	TimedOut bool
	// Canceled reports that the stop channel armed with SetStop fired
	// before completion; ExecTime covers the rounds actually run.
	Canceled bool
	// Err is non-nil when the run could not start (e.g. maxTime <= 0
	// asked for the ideal-time bound but a node's CPU has no P-state
	// table to derive it from). ExecTime is zero in that case.
	Err error
}

// ErrNoPStateTable reports that RunProgram was asked to derive its
// default time bound (maxTime <= 0) from the slowest P-state of a CPU
// whose frequency table is empty. A sentinel rather than a formatted
// error: RunProgram is a hot root and must not allocate per round.
var ErrNoPStateTable = errors.New(
	"cluster: maxTime <= 0 derives its bound from the slowest P-state, but the CPU frequency table is empty")

// RunProgram executes prog SPMD across all nodes with barrier
// synchronization, stepping controllers throughout, and returns the
// execution time. maxTime bounds the run (0 means 10× the ideal time at
// the lowest frequency; that default requires a non-empty P-state
// table on node 0 — see RunResult.Err and ErrNoPStateTable).
func (c *Cluster) RunProgram(prog workload.Program, maxTime time.Duration) RunResult {
	if len(prog.Iters) == 0 || len(c.Nodes) == 0 {
		return RunResult{}
	}
	if maxTime <= 0 {
		tab := c.Nodes[0].CPU.Table()
		if len(tab) == 0 {
			return RunResult{Err: ErrNoPStateTable}
		}
		slowest := tab[len(tab)-1].FreqGHz
		maxTime = time.Duration(10 * prog.IdealSeconds(slowest) * float64(time.Second))
	}

	for i := range c.progStates {
		c.progStates[i] = procState{
			workLeft: prog.Iters[0].ComputeGC,
			memLeft:  durSec(prog.Iters[0].MemSec),
		}
	}
	for _, n := range c.Nodes {
		n.SetGenerator(nil)
	}

	start := c.Clock.Now()
	c.progDt = c.Clock.Dt()
	c.prog = prog
	for {
		allDone := true
		for i := range c.progStates {
			if c.progStates[i].ph != phaseDone {
				allDone = false
				break
			}
		}
		if allDone {
			return RunResult{ExecTime: c.Clock.Now() - start}
		}
		if c.Clock.Now()-start >= maxTime {
			return RunResult{ExecTime: c.Clock.Now() - start, TimedOut: true}
		}
		if c.stopRequested() {
			return RunResult{ExecTime: c.Clock.Now() - start, Canceled: true}
		}

		// Parallel phase: each process advances against its own node
		// and its own state slot; prog and WaitUtil are read-only.
		// Barrier release is a global decision and stays serial. The
		// job is pre-wired at construction (progJob) — it reads
		// prog/progDt/progStates from the fields refreshed above.
		c.advanceNodes(c.progJob)
		c.releaseBarrier(c.progStates, prog)
		c.tickControllers()
	}
}

// advanceProc steps one node through dt of simulated time, handling
// phase transitions at sub-step precision.
func (c *Cluster) advanceProc(n *node.Node, st *procState, prog workload.Program, dt time.Duration) {
	remaining := dt
	for remaining >= time.Nanosecond {
		switch st.ph {
		case phaseBarrier, phaseDone:
			n.SetUtilization(c.WaitUtil)
			n.Step(remaining)
			remaining = 0

		case phaseCompute:
			it := prog.Iters[st.iter]
			rate := n.CPU.FreqGHz() * it.ComputeUtil // GC per second
			if rate <= 0 || st.workLeft <= 1e-9 {
				// Zero-rate "compute" never finishes by retiring work,
				// and a residual at or below the accounting epsilon is
				// complete; either way the phase is over.
				st.workLeft = 0
				st.ph = phaseMem
				continue
			}
			need := time.Duration(st.workLeft / rate * float64(time.Second))
			if need < time.Nanosecond {
				// The residual is worth less than the 1 ns slice
				// resolution at the current clock. Rounding the slice
				// *down* would silently drop the work (the bug this
				// guards against); round it up to one 1 ns slice
				// instead, so the residual is retired and accounted.
				// Any unretired remainder (e.g. the node stalls in a
				// P-state transition) stays in workLeft and carries
				// into the next round.
				need = time.Nanosecond
			}
			slice := remaining
			if need < slice {
				slice = need
			}
			n.SetUtilization(it.ComputeUtil)
			st.workLeft -= n.Step(slice)
			remaining -= slice
			if st.workLeft <= 1e-9 {
				st.workLeft = 0
				st.ph = phaseMem
			}

		case phaseMem:
			// Memory-stall time: the core is busy (full utilization and
			// power) but progress is DRAM-bound and does not scale with
			// the clock.
			it := prog.Iters[st.iter]
			slice := remaining
			if st.memLeft < slice {
				slice = st.memLeft
			}
			if slice >= time.Nanosecond {
				n.SetUtilization(it.ComputeUtil)
				n.Step(slice)
			}
			st.memLeft -= slice
			remaining -= slice
			if st.memLeft < time.Nanosecond {
				st.ph = phaseBarrier
			}

		case phaseComm:
			it := prog.Iters[st.iter]
			slice := remaining
			if st.commLeft < slice {
				slice = st.commLeft
			}
			if slice >= time.Nanosecond {
				n.SetUtilization(it.CommUtil)
				n.Step(slice)
			}
			st.commLeft -= slice
			remaining -= slice
			if st.commLeft < time.Nanosecond {
				st.iter++
				if st.iter >= len(prog.Iters) {
					st.ph = phaseDone
				} else {
					st.ph = phaseCompute
					st.workLeft = prog.Iters[st.iter].ComputeGC
					st.memLeft = durSec(prog.Iters[st.iter].MemSec)
				}
			}
		}
	}
}

// releaseBarrier moves every process into the communication phase once
// all processes of the current iteration have arrived.
func (c *Cluster) releaseBarrier(states []procState, prog workload.Program) {
	iter := -1
	for i := range states {
		st := &states[i]
		if st.ph == phaseDone {
			continue
		}
		if iter == -1 {
			iter = st.iter
		}
		if st.ph != phaseBarrier || st.iter != iter {
			return
		}
	}
	if iter < 0 {
		return
	}
	for i := range states {
		st := &states[i]
		if st.ph == phaseBarrier {
			st.ph = phaseComm
			st.commLeft = durSec(prog.Iters[st.iter].CommSec)
		}
	}
}

func durSec(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
