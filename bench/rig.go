package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/faults"
	"thermctl/internal/tracefile"
)

// workloadFiles holds the scenario documents the workloads start from.
//
//go:embed workloads
var workloadFiles embed.FS

// traceEvery is the trace probe's sampling interval, the campaign
// server's default.
const traceEvery = time.Second

// scenarioDoc returns an embedded scenario document with the run's seed
// stamped on it, shrunk at smoke scale. The program under test only
// ever sees these generated documents.
func scenarioDoc(name string, seed uint64, smoke bool) ([]byte, error) {
	raw, err := workloadFiles.ReadFile("workloads/" + name)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m["seed"] = seed
	if smoke {
		if n, ok := m["nodes"].(json.Number); ok {
			v, _ := n.Int64()
			m["nodes"] = max(v/32, 2)
		}
		if gs, ok := m["groups"].([]any); ok {
			for _, g := range gs {
				g := g.(map[string]any)
				v, _ := g["nodes"].(json.Number).Int64()
				g["nodes"] = max(v/16, 1)
			}
		}
	}
	return json.MarshalIndent(m, "", "  ")
}

// stepTimer is the marker controller attached last: it reads the clock
// once per Cluster.Step into buffers that reserve sized beforehand, so
// OnStep never allocates (thermlint's hotalloc watches every OnStep).
type stepTimer struct {
	prev time.Time
	// mid is stamped by a midMark after the node-advance sweep; adv is
	// nil unless the rig was built with one.
	mid   time.Time
	steps []time.Duration
	adv   []time.Duration
	n     int
}

func (s *stepTimer) OnStep(time.Duration) {
	t := time.Now()
	if s.n < len(s.steps) {
		s.steps[s.n] = t.Sub(s.prev)
		if s.adv != nil {
			s.adv[s.n] = s.mid.Sub(s.prev)
		}
		s.n++
	}
	s.prev = t
}

// reserve makes room for k more steps and restarts the step clock. Call
// it right before each stepping call.
func (s *stepTimer) reserve(k int) {
	if need := s.n + k; need > len(s.steps) {
		s.steps = append(s.steps, make([]time.Duration, need-len(s.steps))...)
		if s.adv != nil {
			s.adv = append(s.adv, make([]time.Duration, need-len(s.adv))...)
		}
	}
	s.prev = time.Now()
}

// midMark is the first cluster-level controller of an instrumented
// rig. Cluster-level controllers attached before any node-local one run
// right after the node-advance sweep, so its timestamp splits the step.
type midMark struct{ t *stepTimer }

func (m *midMark) OnStep(time.Duration) { m.t.mid = time.Now() }

// probeTimer brackets the trace probe with two markers and keeps the
// probe's cost on the steps where it samples, mirroring its schedule.
type probeTimer struct {
	next    time.Duration
	start   time.Time
	samples []time.Duration
	n       int
}

type probeStart struct{ p *probeTimer }

func (m *probeStart) OnStep(time.Duration) { m.p.start = time.Now() }

type probeEnd struct{ p *probeTimer }

func (m *probeEnd) OnStep(now time.Duration) {
	p := m.p
	if now < p.next {
		return
	}
	p.next += traceEvery
	if p.n < len(p.samples) {
		p.samples[p.n] = time.Since(p.start)
		p.n++
	}
}

// roundTimer wraps one node's controller. It mirrors the controller's
// sampling schedule to tell control rounds from idle calls, and times
// rounds only: an idle call costs a few nanoseconds, less than a clock
// read, so its cost is calibrated after the run instead. Per-node state
// only, because node-local controllers run inside the sharded phase.
type roundTimer struct {
	ctl          cluster.Controller
	period, next time.Duration
	rounds       uint64
	idles        uint64
	total        time.Duration
	recent       [64]time.Duration
}

func (r *roundTimer) OnStep(now time.Duration) {
	if now < r.next {
		r.idles++
		r.ctl.OnStep(now)
		return
	}
	r.next += r.period
	t := time.Now()
	r.ctl.OnStep(now)
	d := time.Since(t)
	r.recent[r.rounds%uint64(len(r.recent))] = d
	r.rounds++
	r.total += d
}

// benchRig is a built scenario with the benchmark's timers attached.
type benchRig struct {
	rig   *config.Rig
	timer *stepTimer
	probe *probeTimer // instrumented rigs with a trace probe only
	ctls  []*roundTimer
	tw    *tracefile.Writer
	tf    *os.File
}

// buildRig builds sc the way a user of the scenario layer does: Build,
// then an optional trace probe writing to tracePath, then the step
// timer.
func buildRig(sc config.Scenario, tracePath string) (*benchRig, error) {
	rig, err := sc.Build()
	if err != nil {
		return nil, err
	}
	b := &benchRig{rig: rig, timer: &stepTimer{}}
	if err := b.attachTrace(tracePath, false); err != nil {
		return nil, err
	}
	rig.Cluster.AddController(b.timer)
	return b, nil
}

// buildInstrumented builds sc with the benchmark wiring the control
// plane itself, so it can time it from outside: Build with control and
// chaos stripped, a midMark, the fault plane as Build attaches it, each
// node's ControlSpec.BuildNode controllers wrapped in a roundTimer in
// Build's order, then the trace probe between its markers and the step
// timer. The simulated outcome must equal buildRig's; the runs check
// that with a state digest.
func buildInstrumented(sc config.Scenario, tracePath string) (*benchRig, error) {
	bare := sc
	bare.Control = config.ControlSpec{Fan: "auto", DVFS: "none", Sleep: "none", Tuning: sc.Control.Tuning}
	bare.Chaos = config.ChaosSpec{}
	rig, err := bare.Build()
	if err != nil {
		return nil, err
	}
	rig.Scenario, rig.Nodes = sc, nil
	c := rig.Cluster
	b := &benchRig{rig: rig, timer: &stepTimer{adv: []time.Duration{}}}
	c.AddController(&midMark{t: b.timer})

	if sc.Chaos.Seed != 0 {
		names := make([]string, len(c.Nodes))
		for i, n := range c.Nodes {
			names[i] = n.Name
		}
		horizon := time.Duration(sc.Chaos.HorizonMS) * time.Millisecond
		if horizon <= 0 && rig.Program != nil {
			horizon = time.Duration(1.5 * rig.Program.IdealSeconds(2.4) * float64(time.Second))
		}
		rig.ChaosHorizon = horizon
		if rig.Plane, err = c.ApplyFaults(faults.Generate(sc.Chaos.Seed, names, horizon), sc.Seed); err != nil {
			return nil, err
		}
	}

	period := sc.Control.Tuning.SamplePeriod()
	for i, n := range c.Nodes {
		nc, err := sc.Control.BuildNode(n, config.NodeOptions{})
		if err != nil {
			return nil, err
		}
		for _, ctl := range nc.Controllers {
			rt := &roundTimer{ctl: ctl, period: period}
			b.ctls = append(b.ctls, rt)
			c.AddNodeController(i, rt)
		}
		rig.Nodes = append(rig.Nodes, nc)
	}
	if err := b.attachTrace(tracePath, true); err != nil {
		return nil, err
	}
	c.AddController(b.timer)
	return b, nil
}

func (b *benchRig) attachTrace(path string, timed bool) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	c := b.rig.Cluster
	if timed {
		b.probe = &probeTimer{}
		c.AddController(&probeStart{p: b.probe})
	}
	b.tw, err = config.AttachTraceProbe(c, f, traceEvery)
	if err != nil {
		f.Close()
		return err
	}
	b.tf = f
	if timed {
		c.AddController(&probeEnd{p: b.probe})
	}
	return nil
}

// reserve sizes every timer buffer for k more steps.
func (b *benchRig) reserve(k int) {
	b.timer.reserve(k)
	if p := b.probe; p != nil {
		if need := p.n + k/int(traceEvery/b.rig.Cluster.Clock.Dt()) + 2; need > len(p.samples) {
			p.samples = append(p.samples, make([]time.Duration, need-len(p.samples))...)
		}
	}
}

// chunk is the simulated time of one stepping call; timer buffers grow
// between chunks, never inside the step loop.
const chunk = 10 * time.Second

// runGenerators steps a generator-driven rig chunk by chunk until it
// has simulated prefix and the host deadline has passed, or until it
// reaches horizon (0 for none). At the end of prefix it calls
// atPrefix, if set, with the host time spent stepping so far. It
// returns one window part per chunk.
func (b *benchRig) runGenerators(prefix, horizon time.Duration, deadline time.Time, atPrefix func(time.Duration)) []window {
	c := b.rig.Cluster
	var parts []window
	var wall time.Duration
	for c.Clock.Now() < prefix || time.Now().Before(deadline) {
		// Chunks end exactly at prefix and at horizon.
		now, d := c.Clock.Now(), chunk
		if now < prefix {
			d = min(d, prefix-now)
		}
		if horizon > 0 {
			if now >= horizon {
				break
			}
			d = min(d, horizon-now)
		}
		b.reserve(int(d/c.Clock.Dt()) + 1)
		first := b.timer.n
		cpu := cpuTime()
		t := time.Now()
		c.RunGenerators(b.rig.Generators, d)
		w := time.Since(t)
		wall += w
		steps := b.timer.steps[first:b.timer.n]
		parts = append(parts, window{items: float64(len(steps) * len(c.Nodes)), wall: w,
			cpu: cpuTime() - cpu, lat: durations(steps, time.Millisecond)})
		if now < prefix && c.Clock.Now() >= prefix && atPrefix != nil {
			atPrefix(wall)
		}
	}
	return parts
}

// runJob runs the rig the way the campaign server runs a job: the
// program to completion, or the generators up to the chaos horizon (60 s
// without one). It returns the host time spent stepping.
func (b *benchRig) runJob() (time.Duration, error) {
	c := b.rig.Cluster
	if p := b.rig.Program; p != nil {
		tab := c.Nodes[0].CPU.Table()
		bound := 10 * p.IdealSeconds(tab[len(tab)-1].FreqGHz) * float64(time.Second)
		b.reserve(int(time.Duration(bound)/c.Clock.Dt()) + 2)
		t := time.Now()
		res := c.RunProgram(*p, 0)
		return time.Since(t), res.Err
	}
	horizon := b.rig.ChaosHorizon
	if horizon <= 0 {
		horizon = 60 * time.Second
	}
	var wall time.Duration
	for _, p := range b.runGenerators(horizon, horizon, time.Time{}, nil) {
		wall += p.wall
	}
	return wall, nil
}

// close flushes the trace and releases the worker pool.
func (b *benchRig) close() error {
	b.rig.Cluster.Close()
	if b.tw == nil {
		return nil
	}
	err := b.tw.Close()
	if cerr := b.tf.Close(); err == nil {
		err = cerr
	}
	b.tw = nil
	return err
}

// stateDigest hashes each node's die temperature, fan duty, clock and
// energy bit-exactly.
func stateDigest(c *cluster.Cluster) string {
	d := newDigest()
	for _, n := range c.Nodes {
		d.float(n.TrueDieC())
		d.float(n.Fan.Duty())
		d.float(n.CPU.FreqGHz())
		d.float(n.Meter.EnergyJ())
	}
	return d.String()
}

// checkTrace opens a written trace and checks it. It returns the file
// size and sample count.
func checkTrace(path string, nodes int) (size int64, samples uint64, err error) {
	r, closer, err := tracefile.OpenFile(path)
	if err != nil {
		return 0, 0, err
	}
	defer closer.Close()
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	samples, err = checkReader(r, nodes)
	return fi.Size(), samples, err
}

// checkReader checks a trace is complete, has the schema of an n-node
// cluster and at least one sample, and returns its sample count.
func checkReader(r *tracefile.Reader, nodes int) (uint64, error) {
	if err := r.Incomplete(); err != nil {
		return 0, err
	}
	got, want := r.Schema(), config.ClusterTraceSchema(nodes)
	if len(got) != len(want) {
		return 0, fmt.Errorf("trace schema has %d series, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return 0, fmt.Errorf("trace series %d is %v, want %v", i, got[i], want[i])
		}
	}
	samples, _ := r.Counts()
	if samples == 0 {
		return 0, fmt.Errorf("trace holds no samples")
	}
	return samples, nil
}
