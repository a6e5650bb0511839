package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/faults"
	"thermctl/internal/workload"
)

// The chaos harness exercises the resilience plane end to end: seeded
// fault campaigns run against the full simulated stack (devices, fault
// plane, hybrid control, fail-safe degradation) and the survival report
// answers the questions that matter when control is blind — how long
// until the fail-safe acted, how hot the die got, whether the hardware
// trip point ever fired, and how fast control came back.

// chaosSamplePeriod matches the controllers' sampling, so "blind rounds"
// counts control opportunities lost.
const chaosSamplePeriod = 250 * time.Millisecond

// emergencyC is the node hardware trip point the survival report
// measures margins against (node.DefaultConfig's ProtectC).
const emergencyC = 70.0

// DropoutResult reports the single-node total-sensor-dropout scenario:
// the sensor goes completely dark for 30 s under sustained load.
type DropoutResult struct {
	// FailStart/FailEnd bound the dropout episode.
	FailStart, FailEnd time.Duration
	// Escalated reports whether the fan controller's fail-safe engaged;
	// EscalateAt is when.
	Escalated  bool
	EscalateAt time.Duration
	// FanMaxReached reports whether the fan hit its maximum duty while
	// the sensor was dark; FanMaxAt is the first such sample.
	FanMaxReached bool
	FanMaxAt      time.Duration
	// Released reports whether the fail-safe released after the sensor
	// recovered; ReleaseAt is when.
	Released  bool
	ReleaseAt time.Duration
	// BlindRounds counts control samples between the dropout start and
	// the escalation — rounds with neither data nor fail-safe.
	BlindRounds int
	// MaxDieC is the physical die peak over the whole run (the sensor
	// lies during the dropout; this is ground truth).
	MaxDieC float64
	// Emergencies counts hardware trip-point firings (must stay 0).
	Emergencies uint64
	// FinalDuty is the fan duty at the end of the run — back under
	// normal control, well below maximum.
	FinalDuty float64
}

// EscalateLatency is dropout start → fail-safe engaged.
func (r *DropoutResult) EscalateLatency() time.Duration { return r.EscalateAt - r.FailStart }

// RecoverLatency is sensor recovery → fail-safe released.
func (r *DropoutResult) RecoverLatency() time.Duration { return r.ReleaseAt - r.FailEnd }

// CampaignResult reports the sharded-cluster campaign: a generated
// multi-fault schedule (dropouts, spikes, NAK bursts, fan degradation,
// stalls...) across every node of a 4-node cluster.
type CampaignResult struct {
	// Nodes and Episodes size the campaign.
	Nodes, Episodes int
	// Transitions counts fault-plane edges (begin + clear events).
	Transitions int
	// FanEscalations / DVFSEscalations count fail-safe engagements
	// across all nodes' controllers.
	FanEscalations, DVFSEscalations uint64
	// BusErrors counts controller-visible read/actuation failures.
	BusErrors uint64
	// MaxDieC is the hottest physical die over the run.
	MaxDieC float64
	// Emergencies counts hardware trip-point firings across nodes.
	Emergencies uint64
	// Timeline is the fault plane's event log, one line per edge.
	Timeline string
}

// ChaosResult is the full survival report.
type ChaosResult struct {
	Seed     uint64
	Dropout  DropoutResult
	Campaign CampaignResult
}

// chaosTracker samples ground truth the probes cannot see: physical die
// temperature every step and fan duty at control granularity.
type chaosTracker struct {
	c         *cluster.Cluster
	next      time.Duration
	maxDie    float64
	fanMaxAt  time.Duration
	fanMaxHit bool
}

// OnStep implements cluster.Controller.
func (t *chaosTracker) OnStep(now time.Duration) {
	for _, n := range t.c.Nodes {
		if d := n.TrueDieC(); d > t.maxDie {
			t.maxDie = d
		}
	}
	if now < t.next {
		return
	}
	t.next += chaosSamplePeriod
	if !t.fanMaxHit && t.c.Nodes[0].Fan.Duty() >= 99.5 {
		t.fanMaxHit = true
		t.fanMaxAt = now
	}
}

// Chaos runs both scenarios and assembles the survival report.
func Chaos(seed uint64) (*ChaosResult, error) {
	res := &ChaosResult{Seed: seed}
	d, err := chaosDropout(seed)
	if err != nil {
		return nil, err
	}
	res.Dropout = d
	camp, err := chaosCampaign(seed)
	if err != nil {
		return nil, err
	}
	res.Campaign = camp
	return res, nil
}

// chaosDropout is the acceptance scenario: one node, hybrid control,
// sustained near-full load, and a 30 s total sensor dropout. The
// fail-safe must drive the fan to maximum within its escalation window,
// the die must never reach the hardware trip point, and control must
// resume within the recovery window once the sensor returns.
func chaosDropout(seed uint64) (DropoutResult, error) {
	const (
		failStart = 20 * time.Second
		failFor   = 30 * time.Second
		runFor    = 90 * time.Second
	)
	// Built without control: the hand-written fault plan must join the
	// serial pre-controller phase ahead of the hybrid.
	rig, err := build(1, seed, "", chipAuto)
	if err != nil {
		return DropoutResult{}, err
	}
	c := rig.Cluster
	defer c.Close()
	plan := faults.Plan{
		Name: "dropout-single",
		Schedules: []faults.Schedule{{
			Target: c.Nodes[0].Name,
			Episodes: []faults.Episode{{
				Kind:     faults.SensorDropout,
				Start:    faults.Dur(failStart),
				Duration: faults.Dur(failFor),
			}},
		}},
	}
	if _, err := c.ApplyFaults(plan, seed); err != nil {
		return DropoutResult{}, err
	}
	nodes, err := config.AttachControl(c, control("dynamic", "tdvfs", 50, 100), nil, nil)
	if err != nil {
		return DropoutResult{}, err
	}
	tr := &chaosTracker{c: c}
	c.AddController(tr)

	c.RunGenerator(workload.Constant(0.95), runFor)

	r := DropoutResult{
		FailStart:   failStart,
		FailEnd:     failStart + failFor,
		MaxDieC:     tr.maxDie,
		Emergencies: c.Nodes[0].Emergencies(),
		FinalDuty:   c.Nodes[0].Fan.Duty(),
	}
	for _, ev := range nodes[0].Fan.FailSafeEvents() {
		switch {
		case ev.Engaged && !r.Escalated:
			r.Escalated = true
			r.EscalateAt = ev.At
		case !ev.Engaged && !r.Released:
			r.Released = true
			r.ReleaseAt = ev.At
		}
	}
	r.FanMaxReached, r.FanMaxAt = tr.fanMaxHit, tr.fanMaxAt
	if r.Escalated {
		r.BlindRounds = int((r.EscalateAt - r.FailStart) / chaosSamplePeriod)
	}
	return r, nil
}

// chaosCampaign runs a generated multi-fault schedule across a 4-node
// cluster under hybrid control and tallies the damage.
func chaosCampaign(seed uint64) (CampaignResult, error) {
	const (
		planSpan = 60 * time.Second
		runFor   = 75 * time.Second
	)
	s := config.Scenario{Nodes: 4, Seed: seed, Workers: Workers, Control: control("dynamic", "tdvfs", 50, 100)}
	// The campaign draws from the fleet's seed; normalizing first keeps
	// seed 0 (the scenario default) from meaning "no faults".
	s.Normalize()
	s.Chaos = config.ChaosSpec{Seed: s.Seed, HorizonMS: int(planSpan / time.Millisecond)}
	rig, err := s.Build()
	if err != nil {
		return CampaignResult{}, err
	}
	c, plane := rig.Cluster, rig.Plane
	defer c.Close()
	plan := plane.Plan()
	tr := &chaosTracker{c: c}
	c.AddController(tr)

	c.RunGenerator(workload.Constant(0.85), runFor)

	r := CampaignResult{
		Nodes:       len(c.Nodes),
		Transitions: len(plane.Events()),
		MaxDieC:     tr.maxDie,
		Timeline:    plane.Timeline(),
	}
	for _, sch := range plan.Schedules {
		r.Episodes += len(sch.Episodes)
	}
	for _, nc := range rig.Nodes {
		for _, l := range nc.Lanes {
			for _, ev := range l.Binding.FailSafeEvents() {
				if !ev.Engaged {
					continue
				}
				switch l.Name {
				case "fan":
					r.FanEscalations++
				case "dvfs":
					r.DVFSEscalations++
				}
			}
			r.BusErrors += l.Binding.Errors()
		}
	}
	for _, n := range c.Nodes {
		r.Emergencies += n.Emergencies()
	}
	return r, nil
}

// String renders the survival report.
func (r *ChaosResult) String() string {
	var sb strings.Builder
	d := &r.Dropout
	fmt.Fprintf(&sb, "Chaos survival report (seed %d)\n", r.Seed)
	fmt.Fprintf(&sb, "Scenario A: total sensor dropout %v..%v, 1 node, hybrid Pp=50\n",
		d.FailStart, d.FailEnd)
	if d.Escalated {
		fmt.Fprintf(&sb, "  fail-safe engaged   %-8v (+%v after dropout, %d blind rounds)\n",
			d.EscalateAt, d.EscalateLatency(), d.BlindRounds)
	} else {
		fmt.Fprintf(&sb, "  fail-safe engaged   NEVER\n")
	}
	if d.FanMaxReached {
		fmt.Fprintf(&sb, "  fan at max duty     %-8v\n", d.FanMaxAt)
	} else {
		fmt.Fprintf(&sb, "  fan at max duty     NEVER\n")
	}
	if d.Released {
		fmt.Fprintf(&sb, "  fail-safe released  %-8v (+%v after sensor recovery)\n",
			d.ReleaseAt, d.RecoverLatency())
	} else {
		fmt.Fprintf(&sb, "  fail-safe released  NEVER\n")
	}
	fmt.Fprintf(&sb, "  max die             %.2f degC (%.2f margin to the %.0f degC trip point)\n",
		d.MaxDieC, emergencyC-d.MaxDieC, emergencyC)
	fmt.Fprintf(&sb, "  emergencies         %d\n", d.Emergencies)
	fmt.Fprintf(&sb, "  final fan duty      %.1f%%\n", d.FinalDuty)

	ca := &r.Campaign
	fmt.Fprintf(&sb, "Scenario B: generated campaign, %d nodes, %d episodes, hybrid Pp=50\n",
		ca.Nodes, ca.Episodes)
	fmt.Fprintf(&sb, "  fault transitions   %d\n", ca.Transitions)
	fmt.Fprintf(&sb, "  fail-safe engaged   fan x%d, dvfs x%d\n", ca.FanEscalations, ca.DVFSEscalations)
	fmt.Fprintf(&sb, "  controller errors   %d\n", ca.BusErrors)
	fmt.Fprintf(&sb, "  max die             %.2f degC\n", ca.MaxDieC)
	fmt.Fprintf(&sb, "  emergencies         %d\n", ca.Emergencies)
	fmt.Fprintf(&sb, "  fault timeline:\n")
	for _, line := range strings.Split(strings.TrimRight(ca.Timeline, "\n"), "\n") {
		fmt.Fprintf(&sb, "    %s\n", line)
	}
	return sb.String()
}
