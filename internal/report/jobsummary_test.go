package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
)

func TestSummarizeCampaign(t *testing.T) {
	s := config.DefaultScenario()
	s.Nodes = 2
	s.Chaos.Seed = 7
	s.Chaos.HorizonMS = 30000
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := rig.Cluster.RunProgram(*rig.Program, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	sum := SummarizeCampaign(rig, res)
	if sum.Nodes != 2 || len(sum.NodeStats) != 2 {
		t.Fatalf("node stats: %+v", sum)
	}
	if !strings.HasPrefix(sum.Program, "BT") {
		t.Fatalf("program = %q", sum.Program)
	}
	if sum.ExecTimeMS != res.ExecTime.Milliseconds() {
		t.Fatalf("exec %dms, want %dms", sum.ExecTimeMS, res.ExecTime.Milliseconds())
	}
	if sum.ClusterAvgW <= 0 {
		t.Fatalf("no power recorded: %+v", sum)
	}
	var nodeSum float64
	for _, ns := range sum.NodeStats {
		if ns.Name == "" || ns.AvgW <= 0 || ns.PeakW < ns.AvgW || ns.DieC <= 0 {
			t.Fatalf("implausible node summary: %+v", ns)
		}
		nodeSum += ns.AvgW
	}
	if nodeSum != sum.ClusterAvgW {
		t.Fatalf("cluster avg %v != node sum %v", sum.ClusterAvgW, nodeSum)
	}
	if sum.Chaos == nil {
		t.Fatal("chaos summary missing")
	}
	if sum.Chaos.Seed != 7 || sum.Chaos.HorizonMS != 30000 {
		t.Fatalf("chaos summary: %+v", sum.Chaos)
	}
	if sum.Chaos.Episodes <= 0 {
		t.Fatalf("chaos plan scheduled no episodes: %+v", sum.Chaos)
	}

	// The artifact round-trips through its on-disk format.
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := new(CampaignSummary)
	if err := json.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatal(err)
	}
	if got.ExecTimeMS != sum.ExecTimeMS || got.Chaos.HorizonMS != 30000 || len(got.NodeStats) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestSummarizeCanceledGeneratorRun(t *testing.T) {
	s := config.DefaultScenario()
	s.Nodes = 1
	s.Program = ""
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeCampaign(rig, cluster.RunResult{Canceled: true, ExecTime: 5 * time.Second})
	if !sum.Canceled || sum.Program != "" || sum.Chaos != nil {
		t.Fatalf("canceled generator summary: %+v", sum)
	}
}
