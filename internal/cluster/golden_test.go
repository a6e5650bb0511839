package cluster_test

// Cluster-level golden equivalence: a 4-node cluster under per-node
// hybrid controllers and a generated fault campaign must produce an
// observable trace that matches the committed golden recorded from the
// pre-engine controller implementations. This is the integration half of
// the control-plane refactor's behavior-preservation contract (the unit
// half lives in internal/core/golden_test.go). The same scenario on a
// cluster large enough to build a shard pool must produce a
// byte-identical trace at 1, 2 and 4 workers, so faulted hybrid control,
// fail-safe events included, is checked through a real pool.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/core"
	"thermctl/internal/faults"
	"thermctl/internal/tracefile"
	"thermctl/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// hybridClusterTrace runs the scenario on a cluster of the given size
// at the given worker count and returns the observable trace, one line
// per record. It fails the test unless the cluster steps on want
// participants.
func hybridClusterTrace(t *testing.T, nodes, workers, want int) []string {
	t.Helper()
	const (
		seed      = 20100131
		chaosSeed = 7
	)
	c, err := cluster.New(nodes, cluster.DefaultDt, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetWorkers(workers)
	if got := c.Workers(); got != want {
		t.Fatalf("%d nodes at workers=%d step on %d participants, want %d", nodes, workers, got, want)
	}
	c.Settle(0.2)

	names := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		names[i] = n.Name
	}
	horizon := 60 * time.Second
	if _, err := c.ApplyFaults(faults.Generate(chaosSeed, names, horizon), seed); err != nil {
		t.Fatal(err)
	}

	var fans []*core.Controller
	var dvfss []*core.TDVFS
	for i, n := range c.Nodes {
		read := core.SysfsTemp(n.FS, n.Hwmon.TempInput)
		fan, err := core.NewController(core.DefaultConfig(50), read,
			core.NewFanActuator(core.NewSysfsFanPort(n.FS, n.Hwmon), 100))
		if err != nil {
			t.Fatal(err)
		}
		act, err := core.NewDVFSActuator(core.NewSysfsFreqPort(n.FS, n.Cpufreq))
		if err != nil {
			t.Fatal(err)
		}
		dvfs, err := core.NewTDVFS(core.DefaultTDVFSConfig(50), read, act)
		if err != nil {
			t.Fatal(err)
		}
		// Node-local attachment: each hybrid reads and actuates only its
		// own node, so it runs in the sharded phase. The trace must stay
		// byte-identical to the committed golden recorded under the
		// serial controller list — that equality is this test's proof
		// that the hierarchical split preserves behavior.
		eng := core.NewEngine(read)
		eng.Attach(dvfs.Binding(), nil)
		eng.Attach(fan.Binding(), core.HoldFloorHook(fan.Policy(), dvfs.Policy(), nil))
		c.AddNodeController(i, eng)
		fans = append(fans, fan)
		dvfss = append(dvfss, dvfs)
	}

	var lines []string
	steps := int(horizon / cluster.DefaultDt)
	for _, n := range c.Nodes {
		n.SetGenerator(workload.Constant(0.85))
	}
	for s := 0; s < steps; s++ {
		c.Step()
		if s%20 != 19 {
			continue
		}
		for i, n := range c.Nodes {
			lines = append(lines, fmt.Sprintf("step=%04d node=%s temp=%.6f duty=%.6f ghz=%.6f fan[idx=%d moves=%d errs=%d fs=%v] dvfs[mode=%d errs=%d fs=%v]",
				s, n.Name, n.Sensor.Read(), n.Fan.Duty(), n.CPU.FreqGHz(),
				fans[i].Policy().Index(0), fans[i].Moves(0), fans[i].Binding().Errors(), fans[i].Binding().FailSafe(),
				dvfss[i].Binding().Policy().(*core.ThresholdPolicy).CurrentMode(), dvfss[i].Binding().Errors(), dvfss[i].Binding().FailSafe()))
		}
	}
	for i := range fans {
		for _, ev := range fans[i].FailSafeEvents() {
			lines = append(lines, fmt.Sprintf("event node=%d fan at=%s engaged=%v", i, ev.At, ev.Engaged))
		}
		for _, ev := range dvfss[i].Binding().FailSafeEvents() {
			lines = append(lines, fmt.Sprintf("event node=%d dvfs at=%s engaged=%v", i, ev.At, ev.Engaged))
		}
	}
	return lines
}

func TestGoldenHybridCluster(t *testing.T) {
	path := filepath.Join("testdata", "golden", "hybrid-cluster.tct")
	ref := hybridClusterTrace(t, 4, 1, 1)
	if *update {
		img, err := tracefile.EncodeEvents(ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines, %d bytes)", path, len(ref), len(img))
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update to record): %v", err)
		}
		if err := tracefile.DiffEventLines(want, ref); err != nil {
			t.Fatalf("workers=1 vs golden: %v", err)
		}
	}
}

// TestHybridClusterPoolByteIdentical runs the golden's scenario on a
// cluster of cluster.PoolNodes, where the 4-node golden would step
// inline, and requires the 2- and 4-participant pools to reproduce the
// serial trace. GOMAXPROCS is raised to 4 so the pool is built even on
// a host with fewer CPUs.
func TestHybridClusterPoolByteIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	ref := hybridClusterTrace(t, cluster.PoolNodes, 1, 1)
	events := 0
	for _, line := range ref {
		if strings.HasPrefix(line, "event ") {
			events++
		}
	}
	if events == 0 {
		t.Fatal("the fault campaign engaged no fail-safe, so the comparison would not cover fail-safe control")
	}
	for _, w := range []int{2, 4} {
		got := hybridClusterTrace(t, cluster.PoolNodes, w, w)
		diffFatal(t, fmt.Sprintf("%d nodes, workers=%d vs workers=1", cluster.PoolNodes, w), ref, got)
	}
}

func diffFatal(t *testing.T, what string, want, got []string) {
	t.Helper()
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("%s: first divergence at line %d:\n  want: %q\n  got:  %q", what, i+1, w, g)
		}
	}
}
