package cluster

import (
	"runtime"
	"sync/atomic"
	"time"

	"thermctl/internal/metrics"
)

// spinBudget is how many times an idle participant polls before it
// parks: a helper polls the epoch between sweeps, the dispatcher polls
// the pending count at the join, yielding every spinYield polls. At
// ~0.8 ns a poll it is ~50 µs on a 2-vCPU Xeon @ 2.1 GHz: longer than
// a claimed chunk plus the serial phase between sweeps, a 64-node trace
// sample included, so helpers stay hot through a run of steps; short
// enough that an idle cluster (a finished thermsrv job, a paused run)
// stops burning its CPUs almost at once. Medians of 4 runs at 2 workers
// on 2 Ps, without yields, for budgets 2^12, 2^14, 2^15 and 2^16:
// BenchmarkClusterStep at 256 nodes 84.7, 62.3, 56.8
// and 56.5 µs (serial 104); BenchmarkEngineStep at 256 nodes 109,
// 78.3, 68.1 and 67.1 µs (serial 120-127); BenchmarkClusterStepTrace
// over ClusterStep at 64 nodes +30, +20, +6 and +2.4%. Below 2^16 a
// helper parks while the dispatcher writes the trace sample, and the
// next sweep pays a futex wake.
const spinBudget = 1 << 16

// spinYield is how many polls a spinning participant makes between
// runtime.Gosched calls. A spinner holds its P, so when concurrent
// clusters (thermsrv jobs) field more participants than there are Ps,
// it would keep the goroutine it waits for off the CPU for the whole
// budget; yielding every ~3 µs hands the P over instead. Eight
// concurrent thermsrv jobs of 128 nodes at workers 2 on 4 server
// workers and 2 Ps took 7.6-7.9 s of wall time without yields and
// 2.3-2.8 s yielding every 2^12 polls, against 1.9-2.3 s for the
// channel wake this replaced (6 alternating runs each); thermsrv now
// also caps each job's workers at its share of the Ps. On a single
// cluster the yields cost 0-10% at 64-256 nodes, within run-to-run
// noise.
const spinYield = 1 << 12

// minNodesPerWorker is the fan-out threshold: SetWorkers never gives a
// participant fewer nodes than this, so a cluster under twice the
// threshold steps inline and never builds a pool. Measured with the
// budget above and no threshold, 2 workers on 2 Ps, serial over
// parallel (medians of 4 runs) at 4/8/16/32/48/64 nodes:
// BenchmarkClusterStep 0.70/0.95/1.19/1.46/1.54/1.70×;
// BenchmarkEngineStep, which sweeps twice per step, 0.51/0.79/1.01/
// 1.40/1.45/1.54×. At 8 nodes a participant EngineStep only ties; 16
// is the smallest share measured at which both win.
const minNodesPerWorker = 16

// shardPool is a persistent pool of worker goroutines that advance the
// cluster's nodes in parallel by chunked work-stealing. Each
// participant — the dispatching goroutine itself plus the pool's helper
// goroutines — has a home span, an equal contiguous slice of the node
// indices with its own claim counter. It claims chunks from its home
// span until that is drained, then steals the chunks left in the other
// spans in turn. A fast participant therefore keeps claiming instead of
// idling at a barrier while a slow one finishes a fat span (the
// imbalance the barrierWaitSeconds metric measures); dispatch still
// returns only after every participant has drained, so the caller's
// serial phase never overlaps node advancement.
//
// Three structural decisions keep the pool from losing to serial:
//
//   - The dispatcher participates. It publishes the sweep and then
//     enters the same claim loop, so the goroutine that would otherwise
//     block at the join does a full share of the work.
//   - Only sweeps worth splitting reach the pool. SetWorkers reads
//     GOMAXPROCS once and sizes the pool to at most that many
//     participants, each with at least minNodesPerWorker nodes; when
//     that leaves fewer than two, the cluster steps inline and no pool
//     exists. More participants than Ps would spin against each other
//     for a CPU, and a sweep of a few nodes is cheaper than any
//     handoff.
//   - Home spans keep a node on one participant. Unless stealing moves
//     a chunk, a participant walks the same nodes in the advance sweep,
//     in the control sweep that follows it and in the next step, so a
//     node's state stays in one core's cache, and claims hit a counter
//     no other participant is writing. Measured against one shared
//     counter, whose claims interleave at random, at 64 nodes on 2 Ps
//     (5 runs each): EngineStep 19.8-20.8 µs against 26.3-32.2 µs,
//     ClusterStep 16.0-17.7 µs against 18.6-22.6 µs. End to end, the
//     bench/ fleet-unified workload (256 nodes, hybrid control, 20 s
//     runs, 10 alternating pairs on a 2-vCPU Xeon @ 2.1 GHz): median
//     latency_p50_ms 0.0743 ms with one counter, 0.0581 ms with home
//     spans, which won all 10 pairs.
//
// The handoff is a bounded spin-then-park on both sides. To start a
// sweep the dispatcher publishes the job, sets pending to the helper
// count and bumps the epoch; a helper that sees a new epoch runs the
// claim loop and decrements pending, and the dispatcher returns once
// pending reaches zero. While idle, a helper polls the epoch and the
// dispatcher polls pending for spinBudget loads, yielding the P every
// spinYield; past that each parks
// on its own one-slot channel after raising a parked flag. The waking
// side clears that flag with a CompareAndSwap and sends only if the
// swap succeeds, and the parker re-checks its condition after raising
// the flag, so a wake is never lost and a send never blocks. A wake can
// be stale: a dispatcher slow to look at a helper's flag may find it
// raised by a park that began after the helper had already taken the
// sweep by spinning, and a helper slow to swap the dispatcher's flag
// may hit the next sweep's join. The woken side therefore re-checks its
// condition and parks again when it does not hold. Through a run of
// steps the helpers stay hot across the serial phases, trace samples
// included, so a futex round trip, which costs about as much as a
// sweep, is paid only after an idle spell.
//
// Because a node's step touches only that node's state (the shardsafe
// analyzer enforces the absence of package-level mutable state in the
// packages the parallel phase executes), the floating-point work
// performed for node i is the same instruction sequence regardless of
// which participant runs it or in what order chunks are claimed.
// Results are therefore byte-identical to serial execution for every
// worker count; the pool only changes wall-clock time.
type shardPool struct {
	// chunk is the claim granularity, sized so a home span splits into
	// ~8 chunks — fine enough that stealing balances, coarse enough
	// that a claim covers adjacent nodes.
	chunk int

	// job is the per-node work of the current sweep (nil asks the
	// helpers to exit). It is written before the epoch bump that
	// publishes it and read after a helper observes that bump.
	job func(node int)

	// epoch counts published sweeps; helpers start at 0, the value
	// before the first publish. pending counts the helpers that have
	// not finished the current sweep.
	epoch   atomic.Uint64
	pending atomic.Int64

	// spans holds one home span per participant: the dispatcher's at
	// 0, helper w's at w+1.
	spans []span

	// met points at the owning cluster's metric handles; participants
	// time their claimed work only while met.timed() reports
	// instrumentation, so the uninstrumented hot path takes no
	// wall-clock reads. Written only while the pool is idle (wiring
	// time).
	met *clusterMetrics

	helpers []helper

	// joinParked and joined are the dispatcher's park flag and wake
	// channel at the join.
	joinParked atomic.Bool
	joined     chan struct{}
}

// span is a participant's home slice [start, end) of node indices.
// next, the lowest index not yet claimed, is advanced by chunk with an
// atomic add. The padding keeps each span on its own cache line.
type span struct {
	next       atomic.Int64
	start, end int64
	_          [40]byte
}

// helper is one helper goroutine's park state and its report for the
// last sweep.
type helper struct {
	parked atomic.Bool
	wake   chan struct{}
	// took is the wall time of the helper's claimed work (zero when
	// timing is off), written before its pending decrement.
	took time.Duration
}

// newShardPool builds a pool with the given parallelism over n nodes.
// workers counts the dispatcher, so workers-1 helper goroutines are
// started. SetWorkers sizes workers; it must be at least 2.
func newShardPool(workers, n int) *shardPool {
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	p := &shardPool{
		chunk:   chunk,
		spans:   make([]span, workers),
		helpers: make([]helper, workers-1),
		joined:  make(chan struct{}, 1),
	}
	for k := range p.spans {
		p.spans[k].start = int64(k * n / workers)
		p.spans[k].end = int64((k + 1) * n / workers)
	}
	for w := range p.helpers {
		p.helpers[w].wake = make(chan struct{}, 1)
		go p.loop(&p.helpers[w], w+1)
	}
	return p
}

// loop is one helper, whose home span is spans[home]: wait for a
// sweep, claim and run chunks until it is drained, report completion.
// It starts from epoch 0 rather than loading the epoch, since the
// first sweep may already be published by the time the goroutine runs.
func (p *shardPool) loop(h *helper, home int) {
	var seen uint64
	for {
		seen = p.await(h, seen)
		if p.job == nil {
			return
		}
		h.took = p.run(home)
		if p.pending.Add(-1) == 0 && p.joinParked.CompareAndSwap(true, false) {
			p.joined <- struct{}{}
		}
	}
}

// await returns the first epoch after seen: spin, then park until the
// dispatcher wakes h.
func (p *shardPool) await(h *helper, seen uint64) uint64 {
	for i := 1; i <= spinBudget; i++ {
		if e := p.epoch.Load(); e != seen {
			return e
		}
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
	for {
		h.parked.Store(true)
		if e := p.epoch.Load(); e != seen && h.parked.CompareAndSwap(true, false) {
			return e
		}
		<-h.wake
		if e := p.epoch.Load(); e != seen {
			return e
		}
	}
}

// publish starts a sweep of job (nil: stop) and wakes parked helpers.
// The pool must be idle.
func (p *shardPool) publish(job func(node int)) {
	p.job = job
	for k := range p.spans {
		p.spans[k].next.Store(p.spans[k].start)
	}
	p.pending.Store(int64(len(p.helpers)))
	p.epoch.Add(1)
	for w := range p.helpers {
		h := &p.helpers[w]
		if h.parked.Load() && h.parked.CompareAndSwap(true, false) {
			//thermlint:allow onstepblock -- one-slot wake; the CAS admits one send per park, and the helper drains it before it can park again
			h.wake <- struct{}{}
		}
	}
}

// join returns once every helper has finished the current sweep: spin,
// then park until the last helper wakes the dispatcher.
func (p *shardPool) join() {
	for i := 1; i <= spinBudget; i++ {
		if p.pending.Load() == 0 {
			return
		}
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
	for {
		p.joinParked.Store(true)
		if p.pending.Load() == 0 && p.joinParked.CompareAndSwap(true, false) {
			return
		}
		//thermlint:allow onstepblock -- sweep join; the helper whose decrement reaches zero sends once per raised park flag
		<-p.joined
		if p.pending.Load() == 0 {
			return
		}
	}
}

// run claims chunks, home span first, until the sweep is exhausted and
// returns the wall time spent (zero when instrumentation is off).
func (p *shardPool) run(home int) time.Duration {
	if !p.met.timed() {
		p.claim(home)
		return 0
	}
	begin := metrics.Now()
	p.claim(home)
	return metrics.Since(begin)
}

// claim is the stealing loop: grab the next chunk of the home span and
// run the job over it until the span is drained, then do the same to
// each other span in turn.
func (p *shardPool) claim(home int) {
	chunk := int64(p.chunk)
	for i := range p.spans {
		sp := &p.spans[(home+i)%len(p.spans)]
		for {
			lo := sp.next.Add(chunk) - chunk
			if lo >= sp.end {
				break
			}
			hi := min(lo+chunk, sp.end)
			for node := lo; node < hi; node++ {
				p.job(int(node))
			}
		}
	}
}

// dispatch runs job(i) for every node index across the participants and
// returns after the sweep is fully drained.
func (p *shardPool) dispatch(job func(node int)) {
	p.publish(job)
	mine := p.run(0) // the dispatcher is a participant, not a bystander
	p.join()
	if !p.met.timed() {
		return
	}
	// Instrumented: record each participant's claimed-work wall time
	// and the slowest-minus-fastest spread — the residual imbalance
	// stealing could not smooth this step.
	fastest, slowest := mine, mine
	p.met.shardSeconds.Observe(mine.Seconds())
	for w := range p.helpers {
		d := p.helpers[w].took
		p.met.shardSeconds.Observe(d.Seconds())
		fastest = min(fastest, d)
		slowest = max(slowest, d)
	}
	p.met.barrierWaitSeconds.Observe((slowest - fastest).Seconds())
}

// close releases the helper goroutines, spinning or parked. The pool
// must be idle.
func (p *shardPool) close() {
	p.publish(nil)
}

// SetWorkers spreads node advancement — and, when node-local
// controllers are attached (AddNodeController), the per-node control
// phase — across w-way chunked work-stealing: the stepping goroutine
// plus w-1 persistent helpers claim contiguous chunks of node indices
// from an atomic counter until each sweep drains. w <= 0 selects
// GOMAXPROCS. w is then capped at GOMAXPROCS, read here once, and at
// one worker per minNodesPerWorker nodes; when that leaves one worker
// (w == 1, a single-P runtime, or a cluster under twice the threshold)
// the cluster steps serially with no pool. Workers reports the result.
//
// Within a step the parallel phases touch only per-node state —
// cross-node work (barrier release, rack coupling, fault-plane replay,
// global controllers) runs in the serial sub-phases between them — so
// traces, sensor readings and RunProgram results are byte-identical to
// serial execution for every worker count.
//
// One contract follows from parallel advancement: a workload.Generator
// attached to more than one node (Cluster.RunGenerator does this) must
// be stateless, as the built-in Constant/Step/Ramp/Jitter generators
// are. A generator with internal state (e.g. CPUBurn with a noise
// stream) shared across nodes would be stepped concurrently; give each
// node its own instance instead — RunGenerators takes one generator
// per node, and workload.Spec.Build derives per-node instances from a
// family seed. The same locality contract applies to controllers
// attached with AddNodeController.
func (c *Cluster) SetWorkers(w int) {
	procs := runtime.GOMAXPROCS(0)
	if w <= 0 {
		w = procs
	}
	w = min(w, procs, len(c.Nodes)/minNodesPerWorker)
	if c.pool != nil {
		c.pool.close()
		c.pool = nil
	}
	c.workers = 1
	if w > 1 {
		c.workers = w
		c.pool = newShardPool(w, len(c.Nodes))
		c.pool.met = &c.met
	}
	c.met.workers.Set(float64(c.workers))
}

// Workers returns the number of participants in each sweep (1 when
// stepping serially).
func (c *Cluster) Workers() int { return c.workers }

// Close releases the worker pool's goroutines, if any. The cluster
// remains usable afterwards (it falls back to serial stepping).
func (c *Cluster) Close() {
	if c.pool != nil {
		c.pool.close()
		c.pool = nil
		c.workers = 1
	}
}

// advanceNodes runs job(i) for every node index: on the worker pool
// when one is configured, serially otherwise. It is the entry point to
// the parallel sub-phases of a step; the code between dispatches is
// single-threaded.
func (c *Cluster) advanceNodes(job func(node int)) {
	if c.pool == nil {
		for i := range c.Nodes {
			job(i)
		}
		return
	}
	c.pool.dispatch(job)
}
