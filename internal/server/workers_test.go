package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermctl/internal/config"
)

// TestJobWorkersShareTheProcs: a job's cluster steps on at most
// GOMAXPROCS/Config.Workers participants (at least 1), whatever the
// scenario asks for, so the concurrent jobs never field more spinning
// shard-pool participants than there are Ps.
func TestJobWorkersShareTheProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct{ concurrent, requested, want int }{
		{1, 0, 4}, {1, 2, 2}, {1, 8, 4},
		{2, 0, 2}, {2, 1, 1}, {2, 4, 2},
		{4, 0, 1}, {4, 2, 1},
		{8, 0, 1},
	} {
		s, err := New(Config{Workers: tc.concurrent, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		spec := fmt.Sprintf(`{"nodes": 64, "workers": %d}`, tc.requested)
		sc, err := config.ReadScenarioDir(strings.NewReader(spec), "")
		if err != nil {
			t.Fatal(err)
		}
		rig, err := s.build(&Job{scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		if got := rig.Cluster.Workers(); got != tc.want {
			t.Errorf("%d concurrent jobs, scenario workers %d: job steps on %d participants, want %d",
				tc.concurrent, tc.requested, got, tc.want)
		}
		rig.Cluster.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkConcurrentJobs times a burst of jobs that each ask for a
// multi-worker cluster on a server running several at once: eight
// 128-node, workers-2 campaigns on the default four server workers.
func BenchmarkConcurrentJobs(b *testing.B) {
	_, ts := newTestServer(b, Config{GeneratorHorizon: 60 * time.Second})
	for i := 0; i < b.N; i++ {
		var ids []string
		for k := 0; k < 8; k++ {
			v := submit(b, ts, fmt.Sprintf(`{"nodes": 128, "workers": 2, "seed": %d}`, k+1))
			ids = append(ids, v.ID)
		}
		for _, id := range ids {
			if final := waitTerminal(b, ts, id); final.State != StateDone {
				b.Fatalf("job %s: state %s (error %q), want done", id, final.State, final.Error)
			}
		}
	}
}
