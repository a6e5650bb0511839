package cluster

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"thermctl/internal/core"
)

// schedCtl is a node-local controller with its own schedule: it acts
// every period from period on, reports the next act through NextDue,
// and logs every call it receives, due or not.
type schedCtl struct {
	period, next time.Duration
	calls        []time.Duration
}

func newSchedCtl(period time.Duration) *schedCtl { return &schedCtl{period: period, next: period} }

func (s *schedCtl) OnStep(now time.Duration) {
	s.calls = append(s.calls, now)
	if now >= s.next {
		s.next += s.period
	}
}

func (s *schedCtl) NextDue() time.Duration { return s.next }

// wantDue lists the step times, over steps steps of dt, at which a
// controller with this period and first act at period is due.
func (s *schedCtl) wantDue(dt time.Duration, steps int) []time.Duration {
	var want []time.Duration
	next := s.period
	for k := 1; k <= steps; k++ {
		if now := time.Duration(k) * dt; now >= next {
			want = append(want, now)
			next += s.period
		}
	}
	return want
}

// plainCtl logs every call; it has no NextDue, so it is due every step.
type plainCtl struct{ calls []time.Duration }

func (p *plainCtl) OnStep(now time.Duration) { p.calls = append(p.calls, now) }

// decideCount is a policy counting its decisions.
type decideCount struct{ n int }

func (d *decideCount) Name() string        { return "count" }
func (d *decideCount) Decide(tx *core.Txn) { d.n++ }

func everyStep(dt time.Duration, steps int) []time.Duration {
	out := make([]time.Duration, steps)
	for k := range out {
		out[k] = time.Duration(k+1) * dt
	}
	return out
}

// scheduleRig attaches scheduled controllers of mixed periods to
// different nodes, and two mixed ones to one node.
func scheduleRig(t *testing.T, c *Cluster) map[string]*schedCtl {
	t.Helper()
	ctls := map[string]*schedCtl{
		"n0/250ms": newSchedCtl(250 * time.Millisecond),
		"n5/120ms": newSchedCtl(120 * time.Millisecond),
		"n9/1s":    newSchedCtl(time.Second),
		"n9/400ms": newSchedCtl(400 * time.Millisecond),
		"nL/2.5s":  newSchedCtl(2500 * time.Millisecond),
	}
	c.AddNodeController(0, ctls["n0/250ms"])
	c.AddNodeController(5, ctls["n5/120ms"])
	c.AddNodeController(9, ctls["n9/1s"])
	c.AddNodeController(9, ctls["n9/400ms"])
	c.AddNodeController(len(c.Nodes)-1, ctls["nL/2.5s"])
	return ctls
}

func TestLocalControllersRunExactlyWhenDue(t *testing.T) {
	const steps = 60
	c, err := New(16, DefaultDt, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctls := scheduleRig(t, c)
	jobs := 0
	job := c.localJob
	c.localJob = func(i int) { jobs++; job(i) }
	for k := 0; k < steps; k++ {
		c.Step()
	}
	due := map[time.Duration]bool{}
	for name, s := range ctls {
		want := s.wantDue(DefaultDt, steps)
		if !slices.Equal(s.calls, want) {
			t.Errorf("%s called at %v, want exactly its due steps %v", name, s.calls, want)
		}
		for _, at := range want {
			due[at] = true
		}
	}
	// The sweep is dispatched on the steps where some controller is due
	// and on no other.
	if sweeps := jobs / len(c.Nodes); sweeps != len(due) || jobs%len(c.Nodes) != 0 {
		t.Errorf("%d node jobs = %d sweeps, want %d (the steps with a controller due)", jobs, sweeps, len(due))
	}
}

func TestUnscheduledLocalControllersRunEveryStep(t *testing.T) {
	const steps = 40
	c, err := New(16, DefaultDt, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctls := scheduleRig(t, c)
	plain := &plainCtl{}
	c.AddNodeController(3, plain)
	pol := &decideCount{}
	b, err := core.NewBinding(core.BindingConfig{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	c.AddNodeController(7, b)
	for k := 0; k < steps; k++ {
		c.Step()
	}
	if want := everyStep(DefaultDt, steps); !slices.Equal(plain.calls, want) {
		t.Errorf("controller without NextDue called at %v, want every step", plain.calls)
	}
	if pol.n != steps {
		t.Errorf("period-0 binding decided %d times in %d steps, want every step", pol.n, steps)
	}
	// The sweeps the unscheduled controllers force do not drag the
	// scheduled ones off their own schedules.
	for name, s := range ctls {
		if want := s.wantDue(DefaultDt, steps); !slices.Equal(s.calls, want) {
			t.Errorf("%s called at %v, want exactly its due steps %v", name, s.calls, want)
		}
	}
}

func TestAddNodeControllerForcesNextSweep(t *testing.T) {
	c, err := New(4, DefaultDt, 3)
	if err != nil {
		t.Fatal(err)
	}
	slow := newSchedCtl(time.Second)
	c.AddNodeController(0, slow)
	for k := 0; k < 3; k++ {
		c.Step()
	}
	// Next due at 1 s; a controller attached now is due at once.
	late := &schedCtl{period: time.Second}
	c.AddNodeController(2, late)
	c.Step()
	if want := []time.Duration{4 * DefaultDt}; !slices.Equal(late.calls, want) {
		t.Fatalf("controller attached at %v called at %v, want %v", 3*DefaultDt, late.calls, want)
	}
	if len(slow.calls) != 0 {
		t.Fatalf("1 s controller called at %v before it was due", slow.calls)
	}
}

func TestScheduleIdenticalAcrossWorkers(t *testing.T) {
	forceProcs(t, 4)
	logs := func(workers int) string {
		c, err := New(poolNodes, DefaultDt, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetWorkers(workers)
		if workers > 1 {
			requirePool(t, c, workers)
		}
		ctls := make([]*schedCtl, len(c.Nodes))
		plain := &plainCtl{}
		for i := range c.Nodes {
			// Periods 50-400 ms, staggered across the home spans.
			ctls[i] = newSchedCtl(time.Duration(1+i%8) * DefaultDt)
			c.AddNodeController(i, ctls[i])
		}
		for k := 0; k < 50; k++ {
			c.Step()
			if k == 20 {
				c.AddNodeController(poolNodes/2, plain)
			}
		}
		out := fmt.Sprint(plain.calls)
		for _, s := range ctls {
			out += fmt.Sprint(s.calls)
		}
		return out
	}
	if serial, pooled := logs(1), logs(3); serial != pooled {
		t.Fatalf("call logs differ between workers 1 and 3:\n%s\n%s", serial, pooled)
	}
}
