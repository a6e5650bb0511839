package main

import (
	"fmt"
	"time"

	"thermctl/internal/hwmon"
	"thermctl/internal/power"
)

// ledger collects the per-layer samples of a traced run in memory, from
// one or more instrumented rigs, and turns them into the per-layer
// metrics once at the end.
type ledger struct {
	advance, control []float64 // µs per step: node-advance sweep, rest of the step
	probe            []float64 // µs per trace-probe sample step
	appends          float64   // trace appends made on those steps
	traceBytes       float64
	traceSamples     float64
	rounds           []float64 // ns per control round (recent rounds of each node)
	roundNS          float64
	roundCount       float64
	idleCount        float64
	actuations       float64
	nodeSteps        float64
	builds           []float64 // ms per ReadScenarioDir + Build
	calib            map[string][]float64
	// sink keeps calibrated calls' results alive.
	sink float64
}

func newLedger() *ledger { return &ledger{calib: map[string][]float64{}} }

// addRun folds an instrumented rig's timers in after its run.
func (l *ledger) addRun(b *benchRig) {
	t := b.timer
	for i := 0; i < t.n; i++ {
		l.advance = append(l.advance, float64(t.adv[i])/1e3)
		l.control = append(l.control, float64(t.steps[i]-t.adv[i])/1e3)
	}
	l.nodeSteps += float64(t.n * len(b.rig.Cluster.Nodes))
	if p := b.probe; p != nil {
		l.probe = append(l.probe, durations(p.samples[:p.n], time.Microsecond)...)
		l.appends += float64(p.n * 4 * len(b.rig.Cluster.Nodes))
	}
	for _, r := range b.ctls {
		k := min(r.rounds, uint64(len(r.recent)))
		l.rounds = append(l.rounds, durations(r.recent[:k], time.Nanosecond)...)
		l.roundNS += float64(r.total)
		l.roundCount += float64(r.rounds)
		l.idleCount += float64(r.idles)
	}
	for _, nc := range b.rig.Nodes {
		if nc.Fan != nil {
			for i := 0; i < nc.Fan.Binding().Slots(); i++ {
				l.actuations += float64(nc.Fan.Moves(i))
			}
		}
		if nc.Sleep != nil {
			for i := 0; i < nc.Sleep.Binding().Slots(); i++ {
				l.actuations += float64(nc.Sleep.Moves(i))
			}
		}
		if nc.TDVFS != nil {
			l.actuations += float64(nc.TDVFS.Downscales() + nc.TDVFS.Upscales())
		}
	}
}

// addTrace records a closed trace file's size and sample count.
func (l *ledger) addTrace(size int64, samples uint64) {
	l.traceBytes += float64(size)
	l.traceSamples += float64(samples)
}

// probe is one calibrated call: fn(j) for j cycling over [0, n).
type probe struct {
	name string
	n    int
	fn   func(j int)
}

// calibrate runs the probes in rounds, one 256-call batch of each per
// round, for at least three rounds and budget per probe, and appends
// each batch's cost per call in ns to l.calib. Interleaving the probes
// exposes them all to the same host conditions and the same cache
// pressure, so their costs can be added up and set against one another.
func (l *ledger) calibrate(budget time.Duration, probes []probe) {
	const batch = 256
	next := make([]int, len(probes))
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < budget*time.Duration(len(probes)); round++ {
		for i, p := range probes {
			j := next[i]
			t := time.Now()
			for k := 0; k < batch; k++ {
				p.fn(j)
				if j++; j == p.n {
					j = 0
				}
			}
			next[i] = j
			l.calib[p.name] = append(l.calib[p.name], float64(time.Since(t))/batch)
		}
	}
}

// calibrateRig measures, on the rig's final node states, the per-call
// cost of every exported device method node.Step calls, of the node's
// workload generator, of the sysfs reads and writes the controllers
// make, and of an idle controller call. It runs after the rig's state
// digest was taken: the calls advance the device models. budget is
// the time per method.
func (l *ledger) calibrateRig(b *benchRig, budget time.Duration) error {
	c := b.rig.Cluster
	nodes, dt := c.Nodes, c.Clock.Dt()
	n := len(nodes)
	pw := make([]power.Breakdown, n)
	util := make([]float64, n)
	elapsed := make([]time.Duration, n)
	khz := make([]int64, n)
	for i, nd := range nodes {
		pw[i], util[i], elapsed[i] = nd.Power(), nd.Utilization(), nd.Elapsed()
		khz[i] = nd.Scaler.CurrentKHz()
	}
	var sink float64
	var errs []error
	check := func(err error) {
		if err != nil && len(errs) < 4 {
			errs = append(errs, err)
		}
	}

	probes := []probe{
		{"node.step_ns", n, func(j int) { sink += nodes[j].Step(dt) }},
		{"cpu.step_ns", n, func(j int) {
			nodes[j].CPU.SetUtilization(util[j])
			sink += nodes[j].CPU.Step(dt)
		}},
		{"power.breakdown_ns", n, func(j int) { sink += nodes[j].Power().CPU }},
		{"adt7467.chip_step_ns", n, func(j int) { nodes[j].Chip.Step(dt) }},
		{"sensor.read_ns", n, func(j int) { sink += nodes[j].Sensor.Read() }},
		{"fan.step_ns", n, func(j int) { nodes[j].Fan.Step(dt) }},
		// As node.Step calls it, airflow argument included.
		{"thermal.step_ns", n, func(j int) { nodes[j].Thermal.Step(dt, pw[j].CPU, nodes[j].Fan.Airflow()) }},
		{"power.meter_sample_ns", n, func(j int) { nodes[j].Meter.Sample(pw[j], dt) }},
		{"cpufreq.account_ns", n, func(j int) { nodes[j].Scaler.Account(dt) }},
		{"hwmon.read_temp_ns", n, func(j int) {
			v, err := nodes[j].FS.ReadInt(nodes[j].Hwmon.TempInput)
			check(err)
			sink += float64(v)
		}},
		{"cpufreq.set_speed_ns", n, func(j int) { check(nodes[j].FS.WriteInt(nodes[j].Cpufreq.SetSpeed, khz[j])) }},
	}
	if gens := b.rig.Generators; gens != nil {
		probes = append(probes, probe{"workload.utilization_ns", n, func(j int) { sink += gens[j].Utilization(elapsed[j]) }})
	}
	if len(b.ctls) > 0 {
		now := c.Clock.Now()
		probes = append(probes, probe{"core.idle_call_ns", len(b.ctls), func(j int) { b.ctls[j].ctl.OnStep(now) }})
	}
	l.calibrate(budget, probes)

	// pwm1 takes writes only in manual mode, as the dynamic fan
	// controller sets it. Fleets on the chip curve are switched, which
	// changes the chip's cycle, so this comes last.
	pwm := make([]int64, n)
	for i, nd := range nodes {
		check(nd.FS.WriteInt(nd.Hwmon.PWMEnable, hwmon.PWMEnableManual))
		var err error
		pwm[i], err = nd.FS.ReadInt(nd.Hwmon.PWM)
		check(err)
	}
	l.calibrate(budget, []probe{{"hwmon.write_pwm_ns", n, func(j int) { check(nodes[j].FS.WriteInt(nodes[j].Hwmon.PWM, pwm[j])) }}})

	l.sink += sink
	if len(errs) > 0 {
		return fmt.Errorf("calibration: %v", errs)
	}
	return nil
}

// attributedCalls are the calibrated calls that add up to node.step_ns.
// sensor.read_ns is left out: the sensor is read inside the chip's
// monitoring cycle.
var attributedCalls = []string{
	"workload.utilization_ns", "cpu.step_ns", "power.breakdown_ns", "adt7467.chip_step_ns",
	"fan.step_ns", "thermal.step_ns", "power.meter_sample_ns", "cpufreq.account_ns",
}

// values turns the ledger into per-layer metrics. Layers the workload
// does not exercise read 0.
func (l *ledger) values() map[string]float64 {
	v := map[string]float64{}
	for name, xs := range l.calib {
		v[name] = median(xs)
	}
	var attributed float64
	for _, name := range attributedCalls {
		attributed += v[name]
	}
	if v["node.step_ns"] > 0 {
		v["node.attributed_pct"] = 100 * attributed / v["node.step_ns"]
	}
	v["cluster.parallel_phase_us"] = median(l.advance)
	v["cluster.post_phase_us"] = median(l.control)
	v["core.round_ns"] = median(l.rounds)
	if l.nodeSteps > 0 {
		v["core.node_control_ns"] = (l.roundNS + l.idleCount*v["core.idle_call_ns"]) / l.nodeSteps
	}
	if l.roundCount > 0 {
		v["core.actuation_ratio"] = l.actuations / l.roundCount
	}
	v["tracefile.probe_us"] = median(l.probe)
	if l.appends > 0 {
		var total float64
		for _, x := range l.probe {
			total += x
		}
		v["tracefile.append_ns"] = total * 1e3 / l.appends
	}
	if l.traceSamples > 0 {
		v["tracefile.bytes_per_sample"] = l.traceBytes / l.traceSamples
	}
	v["config.build_ms"] = median(l.builds)
	return v
}

// aggs is the ledger's raw aggregates, written with the run record.
func (l *ledger) aggs() map[string]agg {
	a := map[string]agg{
		"cluster.advance_us":   aggOf(l.advance),
		"cluster.control_us":   aggOf(l.control),
		"core.round_ns":        aggOf(l.rounds),
		"tracefile.probe_us":   aggOf(l.probe),
		"config.build_ms":      aggOf(l.builds),
		"core.rounds":          {Count: int64(l.roundCount), Total: l.roundNS},
		"core.idle_calls":      {Count: int64(l.idleCount)},
		"core.actuations":      {Count: int64(l.actuations)},
		"tracefile.trace_file": {Count: int64(l.traceSamples), Total: l.traceBytes},
	}
	for name, xs := range l.calib {
		a["calibrated."+name] = aggOf(append([]float64(nil), xs...))
	}
	return a
}
