package cluster

import (
	"testing"

	"thermctl/internal/metrics"
	"thermctl/internal/workload"
)

// findSample returns the sample with the given name, failing the test
// when absent.
func findSample(t *testing.T, snap []metrics.Sample, name string) metrics.Sample {
	t.Helper()
	for _, s := range snap {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no sample %q in snapshot", name)
	return metrics.Sample{}
}

func TestClusterMetricsSerial(t *testing.T) {
	c, err := New(4, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.InstrumentMetrics(reg)
	for _, n := range c.Nodes {
		n.SetGenerator(workload.Constant(0.5))
	}
	const steps = 25
	for i := 0; i < steps; i++ {
		c.Step()
	}

	snap := reg.Snapshot()
	if got := findSample(t, snap, "thermctl_cluster_steps_total").Value; got != steps {
		t.Errorf("steps_total = %v, want %v", got, steps)
	}
	if got := findSample(t, snap, "thermctl_cluster_workers").Value; got != 1 {
		t.Errorf("workers gauge = %v, want 1", got)
	}
	step := findSample(t, snap, "thermctl_cluster_step_seconds")
	if step.Count != steps {
		t.Errorf("step_seconds count = %d, want %d", step.Count, steps)
	}
	// Serial stepping never dispatches, so the shard histograms stay
	// empty.
	if got := findSample(t, snap, "thermctl_cluster_shard_seconds").Count; got != 0 {
		t.Errorf("shard_seconds count = %d, want 0 under serial stepping", got)
	}
}

func TestClusterMetricsSharded(t *testing.T) {
	forceProcs(t, 4) // a single-P runtime builds no pool and records no shard metrics
	c, err := New(poolNodes, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	// Instrument first, then shard: SetWorkers must wire the new pool
	// to the already-attached handles and refresh the workers gauge.
	c.InstrumentMetrics(reg)
	const workers = 4
	c.SetWorkers(workers)
	requirePool(t, c, workers)
	for _, n := range c.Nodes {
		n.SetGenerator(workload.Constant(0.5))
	}
	const steps = 10
	for i := 0; i < steps; i++ {
		c.Step()
	}

	snap := reg.Snapshot()
	if got := findSample(t, snap, "thermctl_cluster_workers").Value; got != workers {
		t.Errorf("workers gauge = %v, want %v", got, workers)
	}
	if got := findSample(t, snap, "thermctl_cluster_shard_seconds").Count; got != steps*workers {
		t.Errorf("shard_seconds count = %d, want %d (steps × workers)", got, steps*workers)
	}
	if got := findSample(t, snap, "thermctl_cluster_barrier_wait_seconds").Count; got != steps {
		t.Errorf("barrier_wait_seconds count = %d, want %d", got, steps)
	}
	if got := findSample(t, snap, "thermctl_cluster_steps_total").Value; got != steps {
		t.Errorf("steps_total = %v, want %v", got, steps)
	}
}

func TestClusterMetricsPoolBeforeInstrument(t *testing.T) {
	forceProcs(t, 4)
	c, err := New(poolNodes, DefaultDt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Shard first, then instrument: InstrumentMetrics must reach the
	// existing pool.
	c.SetWorkers(2)
	requirePool(t, c, 2)
	reg := metrics.NewRegistry()
	c.InstrumentMetrics(reg)
	for i := 0; i < 5; i++ {
		c.Step()
	}
	if got := findSample(t, reg.Snapshot(), "thermctl_cluster_shard_seconds").Count; got != 5*2 {
		t.Errorf("shard_seconds count = %d, want 10", got)
	}
}
