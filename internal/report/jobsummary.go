package report

// Campaign summaries are the terminal "report" artifact of a campaign
// server job (internal/server): one JSON document digesting what the
// run did — execution outcome, per-node power/thermal statistics, and
// the fault campaign's damage tally — written next to the job's .tct
// trace. Everything here derives from simulated state only, so a
// summary is as deterministic as the run that produced it.

import (
	"encoding/json"
	"io"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
)

// NodeSummary digests one node's end-of-run statistics.
type NodeSummary struct {
	Name string `json:"name"`
	// AvgW and PeakW are the node's average and peak power draw.
	AvgW  float64 `json:"avg_w"`
	PeakW float64 `json:"peak_w"`
	// DieC is the true die temperature at the end of the run.
	DieC float64 `json:"die_c"`
	// FanDuty is the final PWM duty in percent.
	FanDuty float64 `json:"fan_duty_pct"`
	// FreqTransitions counts DVFS P-state changes over the run.
	FreqTransitions uint64 `json:"freq_transitions"`
	// Emergencies counts hardware trip-point protections.
	Emergencies uint64 `json:"emergencies"`
	// FailSafeEdges counts the node's controller fail-safe
	// escalation/recovery transitions.
	FailSafeEdges int `json:"failsafe_edges"`
}

// ChaosSummary digests the fault campaign of a chaos-enabled run.
type ChaosSummary struct {
	Seed uint64 `json:"seed"`
	// HorizonMS is the effective campaign bound handed to the fault
	// generator — the scenario's explicit horizon_ms or the derived
	// default (see config.Rig.ChaosHorizon).
	HorizonMS int64 `json:"horizon_ms"`
	// Episodes counts scheduled fault episodes; Transitions counts the
	// begin/clear edges actually replayed during the run.
	Episodes    int `json:"episodes"`
	Transitions int `json:"transitions"`
}

// CampaignSummary is the whole-job digest.
type CampaignSummary struct {
	Name    string `json:"name,omitempty"`
	Program string `json:"program,omitempty"`
	Nodes   int    `json:"nodes"`
	Seed    uint64 `json:"seed"`
	// ExecTimeMS is the simulated execution time in milliseconds.
	ExecTimeMS int64 `json:"exec_time_ms"`
	TimedOut   bool  `json:"timed_out,omitempty"`
	Canceled   bool  `json:"canceled,omitempty"`
	// ClusterAvgW sums the nodes' average power draws.
	ClusterAvgW float64       `json:"cluster_avg_w"`
	NodeStats   []NodeSummary `json:"node_stats"`
	Chaos       *ChaosSummary `json:"chaos,omitempty"`
}

// SummarizeCampaign digests a finished (or canceled) scenario run.
func SummarizeCampaign(rig *config.Rig, res cluster.RunResult) *CampaignSummary {
	s := &CampaignSummary{
		Name:       rig.Scenario.Name,
		Nodes:      len(rig.Cluster.Nodes),
		Seed:       rig.Scenario.Seed,
		ExecTimeMS: res.ExecTime.Milliseconds(),
		TimedOut:   res.TimedOut,
		Canceled:   res.Canceled,
	}
	if rig.Program != nil {
		s.Program = rig.Program.Name
	}
	for i, n := range rig.Cluster.Nodes {
		ns := NodeSummary{
			Name:            n.Name,
			AvgW:            n.Meter.AverageW(),
			PeakW:           n.Meter.PeakW(),
			DieC:            n.TrueDieC(),
			FanDuty:         n.Fan.Duty(),
			FreqTransitions: n.CPU.Transitions(),
			Emergencies:     n.Emergencies(),
			FailSafeEdges:   failSafeEdges(rig.Nodes[i]),
		}
		s.ClusterAvgW += ns.AvgW
		s.NodeStats = append(s.NodeStats, ns)
	}
	if rig.Plane != nil {
		cs := &ChaosSummary{
			Seed:        rig.Scenario.Chaos.Seed,
			HorizonMS:   rig.ChaosHorizon.Milliseconds(),
			Transitions: len(rig.Plane.Events()),
		}
		for _, sch := range rig.Plane.Plan().Schedules {
			cs.Episodes += len(sch.Episodes)
		}
		s.Chaos = cs
	}
	return s
}

// failSafeEdges counts one node's fail-safe transitions across its
// control lanes.
func failSafeEdges(nc *config.NodeControl) int {
	edges := 0
	for _, l := range nc.Lanes {
		edges += len(l.Binding.FailSafeEvents())
	}
	return edges
}

// WriteJSON renders the summary as indented JSON, the on-disk artifact
// format.
func (s *CampaignSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
