package config

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/trace"
	"thermctl/internal/tracefile"
	"thermctl/internal/workload"
)

// shadowProbe records the same observables as the cluster sampler into an
// in-memory recorder, at the same cadence, from the same serial phase
// — the reference the file must reproduce byte for byte.
type shadowProbe struct {
	c     *cluster.Cluster
	rec   *trace.Recorder
	names []tracefile.SeriesDef
	every time.Duration
	next  time.Duration
}

func (p *shadowProbe) OnStep(now time.Duration) {
	if now < p.next {
		return
	}
	p.next += p.every
	for i, n := range p.c.Nodes {
		base := i * cluster.FrameWidth
		p.rec.Record(p.names[base+cluster.FrameTemp].Name, now, n.Sensor.Read())
		p.rec.Record(p.names[base+cluster.FrameDuty].Name, now, n.Fan.Duty())
		p.rec.Record(p.names[base+cluster.FrameFreq].Name, now, n.CPU.FreqGHz())
		p.rec.Record(p.names[base+cluster.FramePower].Name, now, n.Power().Total())
	}
}

// buildTraced assembles a small scenario rig with the trace probe
// attached, runs a generator campaign, and returns the trace bytes
// plus the shadow recorder.
func buildTraced(t *testing.T, workers int) ([]byte, *trace.Recorder) {
	t.Helper()
	s := DefaultScenario()
	s.Nodes = 4
	s.Workers = workers
	s.Program = ""
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := rig.Cluster
	var buf bytes.Buffer
	w, err := AttachTraceProbe(c, &buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	shadow := &shadowProbe{c: c, rec: trace.NewRecorder(),
		names: ClusterTraceSchema(len(c.Nodes)), every: time.Second}
	c.AddController(shadow)
	c.RunGenerator(workload.Constant(0.85), 30*time.Second)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), shadow.rec
}

// TestTraceProbeRoundTrip is the acceptance check: re-reading a written
// file reproduces the in-memory series bit for bit — every name, every
// timestamp, every float64.
func TestTraceProbeRoundTrip(t *testing.T) {
	img, want := buildTraced(t, 1)
	r, err := tracefile.NewBytesReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Incomplete(); err != nil {
		t.Fatalf("Incomplete: %v", err)
	}
	got := trace.NewRecorder()
	schema := r.Schema()
	if err := r.Samples(tracefile.Window{}, func(s tracefile.Sample) error {
		got.Record(schema[s.Series].Name, s.T, s.V)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantNames := want.Names()
	gotNames := got.Names()
	if len(wantNames) != len(gotNames) {
		t.Fatalf("series count %d, want %d", len(gotNames), len(wantNames))
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] {
			t.Fatalf("series %d = %q, want %q", i, gotNames[i], wantNames[i])
		}
	}
	for _, name := range wantNames {
		ws, gs := want.Series(name), got.Series(name)
		if gs == nil || gs.Len() != ws.Len() {
			t.Fatalf("series %s: got %v points, want %d", name, gs, ws.Len())
		}
		for j := range ws.Points {
			wp, gp := ws.Points[j], gs.Points[j]
			if wp.T != gp.T || math.Float64bits(wp.V) != math.Float64bits(gp.V) {
				t.Fatalf("series %s point %d = %+v, want %+v (bit-exact)", name, j, gp, wp)
			}
		}
	}
	if ns, _ := r.Counts(); ns == 0 {
		t.Fatal("trace recorded no samples")
	}
}

// TestTraceProbeRejectsBadInterval: every <= 0 must fail with the named
// error instead of registering a probe whose schedule never advances
// (it would sample on every step, bloating the trace silently).
func TestTraceProbeRejectsBadInterval(t *testing.T) {
	s := DefaultScenario()
	s.Nodes = 1
	s.Program = ""
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, every := range []time.Duration{0, -time.Second} {
		w, err := AttachTraceProbe(rig.Cluster, &buf, every)
		if err == nil {
			t.Fatalf("interval %s accepted", every)
		}
		if !errors.Is(err, ErrTraceInterval) {
			t.Fatalf("interval %s: error %v is not ErrTraceInterval", every, err)
		}
		if w != nil {
			t.Fatalf("interval %s: writer returned alongside error", every)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected probe still wrote %d header bytes", buf.Len())
	}
}

// TestTraceBytesIdenticalAcrossWorkers is the PR 2/4 determinism
// discipline applied to the trace file: the recorded bytes must not
// depend on the worker count stepping the cluster.
func TestTraceBytesIdenticalAcrossWorkers(t *testing.T) {
	ref, _ := buildTraced(t, 1)
	if len(ref) == 0 {
		t.Fatal("empty reference trace")
	}
	for _, workers := range []int{2, 4} {
		img, _ := buildTraced(t, workers)
		if !bytes.Equal(ref, img) {
			t.Fatalf("trace bytes at workers=%d differ from workers=1 (%d vs %d bytes)",
				workers, len(img), len(ref))
		}
	}
}
