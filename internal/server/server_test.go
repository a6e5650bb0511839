package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/metrics"
	"thermctl/internal/report"
	"thermctl/internal/tracefile"
)

// btSpec is a small, fast campaign: the BT program on two nodes runs
// in ~0.1s of wall clock.
const btSpec = `{"nodes": 2, "program": "bt"}`

// newTestServer builds a server over a test temp dir. Callers mutate
// cfg via the argument; zero fields take the defaults.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil && !errors.Is(err, ErrShutdownForced) {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

// submit posts a scenario document and decodes the accepted view.
func submit(t testing.TB, ts *httptest.Server, spec string) View {
	t.Helper()
	v, status := trySubmit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", status)
	}
	return v
}

// trySubmit posts a scenario document and returns the view (zero on
// rejection) plus the HTTP status.
func trySubmit(t testing.TB, ts *httptest.Server, spec string) (View, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return View{}, resp.StatusCode
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if v.ID == "" || v.State == "" {
		t.Fatalf("submit view missing id or state: %+v", v)
	}
	return v, resp.StatusCode
}

// getView fetches one job's current view.
func getView(t testing.TB, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	return v
}

// waitTerminal polls until the job leaves the live states.
func waitTerminal(t testing.TB, ts *httptest.Server, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getView(t, ts, id)
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return View{}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts, btSpec)
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job state = %s", v.State)
	}
	if v.Nodes != 2 || v.Program != "bt" {
		t.Fatalf("view did not echo the scenario: %+v", v)
	}

	final := waitTerminal(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	if final.ExecTimeMS <= 0 {
		t.Fatalf("done job has no exec time: %+v", final)
	}
	if final.Artifacts["trace"] == "" || final.Artifacts["report"] == "" {
		t.Fatalf("done job lists no artifacts: %+v", final)
	}
	if final.StartedAt == "" || final.FinishedAt == "" {
		t.Fatalf("done job missing timestamps: %+v", final)
	}

	// The report artifact decodes and matches the campaign.
	resp, err := http.Get(ts.URL + final.Artifacts["report"])
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report: status %d", resp.StatusCode)
	}
	sum := new(report.CampaignSummary)
	if err := json.NewDecoder(resp.Body).Decode(sum); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	// The report names the program canonically (BT.B.4), not by the
	// scenario's short selector.
	if !strings.HasPrefix(sum.Program, "BT") || len(sum.NodeStats) != 2 {
		t.Fatalf("report mismatch: %+v", sum)
	}
	if sum.ExecTimeMS != final.ExecTimeMS {
		t.Fatalf("report exec %dms, view %dms", sum.ExecTimeMS, final.ExecTimeMS)
	}
	if sum.ClusterAvgW <= 0 {
		t.Fatalf("report has no power: %+v", sum)
	}

	// The trace artifact is a valid .tct file with the cluster schema.
	fetchTrace(t, ts, final, 2)
}

// fetchTrace downloads the job's trace artifact, validates it with
// the tracefile reader and returns the reader.
func fetchTrace(t *testing.T, ts *httptest.Server, v View, nodes int) *tracefile.Reader {
	t.Helper()
	resp, err := http.Get(ts.URL + v.Artifacts["trace"])
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("download trace: %v", err)
	}
	r, err := tracefile.NewBytesReader(b)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	want := config.ClusterTraceSchema(nodes)
	if len(r.Schema()) != len(want) {
		t.Fatalf("trace has %d series, want %d", len(r.Schema()), len(want))
	}
	return r
}

func TestSubmitInvalidScenario(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, spec := range map[string]string{
		"bad json":        `{"nodes": `,
		"unknown program": `{"program": "mg"}`,
		"unknown field":   `{"porgram": "bt"}`,
		"bad workers":     `{"workers": -1}`,
	} {
		if _, status := trySubmit(t, ts, spec); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}

// TestSubmitRejectsHugeNodeCount: a node count past config.MaxNodes is
// a 400 at submission, not a panic or an allocation of terabytes on the
// job goroutine, and the server keeps running jobs afterwards.
func TestSubmitRejectsHugeNodeCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, spec := range []string{
		`{"nodes": 1000000000000000}`,
		fmt.Sprintf(`{"nodes": %d}`, config.MaxNodes+1),
		fmt.Sprintf(`{"groups": [{"name": "a", "nodes": %d}]}`, config.MaxNodes+1),
	} {
		if _, status := trySubmit(t, ts, spec); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", spec, status)
		}
	}
	v := submit(t, ts, `{"nodes": 1, "program": "", "chaos": {"horizon_ms": 2000}}`)
	if final := waitTerminal(t, ts, v.ID); final.State != StateDone {
		t.Fatalf("job after the rejected submissions ended %s (%s)", final.State, final.Error)
	}
}

func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/trace", "/v1/jobs/nope/report", "/v1/jobs/nope/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := submit(t, ts, btSpec)
	b := submit(t, ts, btSpec)
	waitTerminal(t, ts, a.ID)
	waitTerminal(t, ts, b.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []View `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(body.Jobs))
	}
	// Submission order.
	if body.Jobs[0].ID != a.ID || body.Jobs[1].ID != b.ID {
		t.Fatalf("list order %s, %s; want %s, %s", body.Jobs[0].ID, body.Jobs[1].ID, a.ID, b.ID)
	}
}

// deleteJob issues the cancel request and returns the status code.
func deleteJob(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func TestCancelRunningJob(t *testing.T) {
	// A generator job with a huge simulated horizon: the simulator
	// covers roughly an hour of simulated time per 40ms of wall clock,
	// so only an enormous horizon guarantees the job cannot finish on
	// its own within the test.
	_, ts := newTestServer(t, Config{GeneratorHorizon: 1000 * time.Hour})
	v := submit(t, ts, `{"nodes": 2}`)

	deadline := time.Now().Add(10 * time.Second)
	for getView(t, ts, v.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status := deleteJob(t, ts, v.ID); status != http.StatusAccepted {
		t.Fatalf("DELETE running: status %d, want 202", status)
	}
	final := waitTerminal(t, ts, v.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	// A canceled run still yields its partial artifacts.
	if final.Artifacts["report"] == "" {
		t.Fatalf("canceled job lists no report: %+v", final)
	}

	// Canceling a terminal job conflicts.
	if status := deleteJob(t, ts, v.ID); status != http.StatusConflict {
		t.Fatalf("DELETE terminal: status %d, want 409", status)
	}
}

func TestQueueOverflow(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.hookRunning = func(*Job) { <-release }
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	// First job occupies the only worker (parked in the hook); the
	// second fills the queue; the third must bounce.
	a := submit(t, ts, btSpec)
	waitHookParked(t, s, a.ID)
	b := submit(t, ts, btSpec)
	if _, status := trySubmit(t, ts, btSpec); status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", status)
	}
	if got := s.m.rejected[rejectQueue].Value(); got != 1 {
		t.Fatalf("rejected{queue_full} = %d, want 1", got)
	}

	// Canceling the queued job resolves it without running.
	if status := deleteJob(t, ts, b.ID); status != http.StatusAccepted {
		t.Fatalf("DELETE queued: status %d, want 202", status)
	}
	if st := getView(t, ts, b.ID).State; st != StateCanceled {
		t.Fatalf("queued job after cancel = %s, want canceled", st)
	}

	close(release)
	if final := waitTerminal(t, ts, a.ID); final.State != StateDone {
		t.Fatalf("first job = %s, want done", final.State)
	}
}

// waitHookParked waits until the job has flipped to running (the hook
// is holding the worker).
func waitHookParked(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j != nil && j.State() == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never parked in the hook")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestChaosHorizonRoundTrip(t *testing.T) {
	// The scenario-lifecycle fix end to end: an explicit chaos
	// horizon_ms submitted over the API must reach the fault generator
	// and come back in the report, not be silently replaced by the
	// derived default.
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts, `{"nodes": 2, "program": "bt", "chaos": {"seed": 42, "horizon_ms": 4200}}`)
	final := waitTerminal(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	resp, err := http.Get(ts.URL + final.Artifacts["report"])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sum := new(report.CampaignSummary)
	if err := json.NewDecoder(resp.Body).Decode(sum); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if sum.Chaos == nil {
		t.Fatal("report has no chaos summary")
	}
	if sum.Chaos.HorizonMS != 4200 {
		t.Fatalf("chaos horizon %dms, want the explicit 4200", sum.Chaos.HorizonMS)
	}
	if sum.Chaos.Seed != 42 {
		t.Fatalf("chaos seed %d, want 42", sum.Chaos.Seed)
	}
}

// sseEvent is one parsed frame from a stream response.
type sseEvent struct {
	kind string
	data string
}

// readSSE parses frames from an SSE response until the stream ends,
// the limit is hit, or stop returns true for a frame.
func readSSE(t *testing.T, body io.Reader, limit int, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var out []sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	cur := sseEvent{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.kind == "" {
				continue
			}
			out = append(out, cur)
			if stop(cur) || len(out) >= limit {
				return out
			}
			cur = sseEvent{}
		}
	}
	return out
}

func TestStreamDeliversSamplesAndFinalState(t *testing.T) {
	// Campaigns are near-instant in wall clock, so the worker parks in
	// the test hook until the stream is attached — otherwise the job
	// finishes before the subscription exists.
	s, ts := newTestServer(t, Config{Workers: 1, GeneratorHorizon: 20 * time.Second})
	release := make(chan struct{})
	s.hookRunning = func(*Job) { <-release }
	v := submit(t, ts, `{"nodes": 2}`)
	waitHookParked(t, s, v.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	events := readSSE(t, resp.Body, 10_000, func(ev sseEvent) bool {
		if ev.kind != "state" {
			return false
		}
		var st View
		if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
			t.Fatalf("state frame: %v", err)
		}
		return st.State.Terminal()
	})
	if len(events) == 0 {
		t.Fatal("stream delivered nothing")
	}
	if events[0].kind != "state" {
		t.Fatalf("first frame %q, want the state greeting", events[0].kind)
	}

	// The stream and the trace are two sinks of one sampler: every
	// streamed value is bit-identical to the trace sample at its t_ms.
	final := waitTerminal(t, ts, v.ID)
	traced := map[int64][]float64{}
	r := fetchTrace(t, ts, final, 2)
	if err := r.Samples(tracefile.Window{}, func(s tracefile.Sample) error {
		ms := s.T.Milliseconds()
		if traced[ms] == nil {
			traced[ms] = make([]float64, len(r.Schema()))
		}
		traced[ms][s.Series] = s.V
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	samples := 0
	lastT := int64(-1)
	for _, ev := range events {
		if ev.kind != "sample" {
			continue
		}
		samples++
		var rec sampleRec
		if err := json.Unmarshal([]byte(ev.data), &rec); err != nil {
			t.Fatalf("sample frame: %v", err)
		}
		if len(rec.Nodes) != 2 {
			t.Fatalf("sample has %d nodes, want 2", len(rec.Nodes))
		}
		if rec.TMS <= lastT {
			t.Fatalf("samples out of order: %d after %d", rec.TMS, lastT)
		}
		lastT = rec.TMS
		if rec.Nodes[0].Temp < 10 || rec.Nodes[0].Temp > 150 {
			t.Fatalf("implausible temperature %v", rec.Nodes[0].Temp)
		}
		frame := traced[rec.TMS]
		if frame == nil {
			t.Fatalf("sample at %d ms has no trace samples", rec.TMS)
		}
		for i, n := range rec.Nodes {
			f := frame[i*cluster.FrameWidth:]
			for _, c := range []struct {
				name        string
				stream, tct float64
			}{
				{"temp", n.Temp, f[cluster.FrameTemp]},
				{"duty", n.Duty, f[cluster.FrameDuty]},
				{"freq", n.Freq, f[cluster.FrameFreq]},
				{"power", n.Power, f[cluster.FramePower]},
			} {
				if math.Float64bits(c.stream) != math.Float64bits(c.tct) {
					t.Fatalf("t=%d ms node %d %s: stream %v, trace %v", rec.TMS, i, c.name, c.stream, c.tct)
				}
			}
		}
	}
	if samples < 5 {
		t.Fatalf("stream delivered %d samples over a 20s campaign, want >= 5", samples)
	}
	last := events[len(events)-1]
	if last.kind != "state" {
		t.Fatalf("stream ended with %q, want the final state", last.kind)
	}
}

// TestJobsReleaseWorkers: a job's cluster steps on its own worker pool,
// which must be closed once the job's artifacts are written, or every
// finished job leaks its pool goroutines. 64 nodes clear the cluster's
// fan-out threshold, so each job builds a pool wherever GOMAXPROCS >= 2.
func TestJobsReleaseWorkers(t *testing.T) {
	const slack = 2
	before := runtime.NumGoroutine()
	_, ts := newTestServer(t, Config{Workers: 1, GeneratorHorizon: 5 * time.Second})
	for i := 0; i < 4; i++ {
		v := submit(t, ts, `{"nodes": 64, "workers": 2}`)
		if final := waitTerminal(t, ts, v.ID); final.State != StateDone {
			t.Fatalf("job %s: state %s (error %q), want done", v.ID, final.State, final.Error)
		}
	}
	ts.Client().CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	// One server worker goroutine is expected; closed pools' helpers
	// and idle HTTP connections exit asynchronously.
	limit := before + 1 + slack
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > limit {
		t.Errorf("4 finished jobs left %d goroutines running (%d before, %d after)", after-before, before, after)
	}
}

func TestStreamOnTerminalJobReturnsState(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts, btSpec)
	waitTerminal(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 10, func(sseEvent) bool { return false })
	if len(events) != 1 || events[0].kind != "state" {
		t.Fatalf("terminal stream = %+v, want exactly one state frame", events)
	}
	var st View
	if err := json.Unmarshal([]byte(events[0].data), &st); err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		t.Fatalf("terminal stream state = %s", st.State)
	}
}

func TestFailSafeEventsStreamUnderChaos(t *testing.T) {
	// A chaos campaign with a long horizon produces fault transitions;
	// the stream must carry them. The worker parks in the hook until
	// the stream is attached (see TestStreamDeliversSamplesAndFinalState).
	s, ts := newTestServer(t, Config{Workers: 1, GeneratorHorizon: 90 * time.Second})
	release := make(chan struct{})
	s.hookRunning = func(*Job) { <-release }
	v := submit(t, ts, `{"nodes": 2, "chaos": {"seed": 7, "horizon_ms": 90000}}`)
	waitHookParked(t, s, v.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 100_000, func(ev sseEvent) bool {
		if ev.kind != "state" {
			return false
		}
		var st View
		if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
			return false
		}
		return st.State.Terminal()
	})
	faults := 0
	for _, ev := range events {
		if ev.kind == "fault" {
			var rec struct {
				Target string `json:"target"`
			}
			if err := json.Unmarshal([]byte(ev.data), &rec); err != nil {
				t.Fatalf("fault frame: %v", err)
			}
			if rec.Target == "" {
				t.Fatal("fault frame without a target")
			}
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no fault transitions streamed from a chaos campaign")
	}
}

func TestShutdownRefusesNewWork(t *testing.T) {
	cfg := Config{Workers: 1, Dir: t.TempDir(), Registry: metrics.NewRegistry()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	s.hookRunning = func(*Job) { <-release }
	a := submit(t, ts, btSpec)
	waitHookParked(t, s, a.ID)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// Wait for the drain flag, then verify intake refuses.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shutdown never flipped draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, status := trySubmit(t, ts, btSpec); status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", status)
	}
	if got := s.m.rejected[rejectDraining].Value(); got != 1 {
		t.Fatalf("rejected{draining} = %d, want 1", got)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	if st := getView(t, ts, a.ID).State; st != StateDone {
		t.Fatalf("drained job = %s, want done", st)
	}
}

func TestShutdownForcedCancelsJobs(t *testing.T) {
	cfg := Config{Workers: 1, Dir: t.TempDir(), GeneratorHorizon: 1000 * time.Hour}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v := submit(t, ts, `{"nodes": 2}`)
	deadline := time.Now().Add(10 * time.Second)
	for getView(t, ts, v.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, ErrShutdownForced) {
		t.Fatalf("Shutdown = %v, want ErrShutdownForced", err)
	}
	if st := getView(t, ts, v.ID).State; st != StateCanceled {
		t.Fatalf("forced-shutdown job = %s, want canceled", st)
	}
}

func TestMetricsReflectJobFlow(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg})

	for i := 0; i < 3; i++ {
		v := submit(t, ts, btSpec)
		waitTerminal(t, ts, v.ID)
	}
	bad := submit(t, ts, `{"nodes": 2, "program": "bt", "chaos": {"seed": 1}}`)
	waitTerminal(t, ts, bad.ID)
	trySubmit(t, ts, `{"program": "mg"}`)

	if got := s.m.submitted.Value(); got != 4 {
		t.Errorf("submitted = %d, want 4", got)
	}
	if got := s.m.rejected[rejectInvalid].Value(); got != 1 {
		t.Errorf("rejected{invalid} = %d, want 1", got)
	}
	if got := s.m.finished[StateDone].Value(); got != 4 {
		t.Errorf("finished{done} = %d, want 4", got)
	}
	if got := s.m.jobSeconds.Count(); got != 4 {
		t.Errorf("job_seconds count = %d, want 4", got)
	}
	if d := s.m.queueDepth.Value(); d != 0 {
		t.Errorf("queue depth %v after drain, want 0", d)
	}
	if r := s.m.running.Value(); r != 0 {
		t.Errorf("running %v after drain, want 0", r)
	}

	// The instruments render on the standard exposition surface.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"thermsrv_jobs_submitted_total 4",
		`thermsrv_jobs_finished_total{state="done"} 4`,
		"thermsrv_queue_depth 0",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestScenarioArtifactPersisted(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Dir: dir})
	v := submit(t, ts, btSpec)
	waitTerminal(t, ts, v.ID)

	f, err := os.Open(fmt.Sprintf("%s/%s/scenario.json", dir, v.ID))
	if err != nil {
		t.Fatalf("scenario artifact: %v", err)
	}
	defer f.Close()
	spec, err := config.ReadScenarioDir(f, "")
	if err != nil {
		t.Fatalf("stored scenario does not round-trip: %v", err)
	}
	if spec.Program != "bt" || spec.Nodes != 2 {
		t.Fatalf("stored scenario = %+v", spec)
	}
}

func TestArtifactsBeforeTerminalConflict(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.hookRunning = func(*Job) { <-release }
	defer close(release)

	v := submit(t, ts, btSpec)
	waitHookParked(t, s, v.ID)
	for _, path := range []string{"/trace", "/report"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("GET %s on running job: status %d, want 409", path, resp.StatusCode)
		}
	}
}

func TestNewRequiresDir(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a dir must fail")
	}
}

// TestStreamFailSafeEdgesFollowLanes: sampled at the control cadence,
// the stream carries exactly the fail-safe edges each node's lanes
// logged, under the lane's name, alternating engaged/recovered.
func TestStreamFailSafeEdgesFollowLanes(t *testing.T) {
	for _, cs := range []config.ControlSpec{
		{Fan: "dynamic", DVFS: "tdvfs", Sleep: "ctlarray"},
		{Fan: "static", DVFS: "cpuspeed", Sleep: "ctlarray"},
	} {
		s := config.Scenario{Nodes: 4, Program: "bt", Workers: 1, Control: cs,
			Chaos: config.ChaosSpec{Seed: 42, HorizonMS: 60000}}
		rig, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		h := newHub(nil)
		ch := make(chan event, 1<<16)
		h.subs[ch] = struct{}{}
		if err := rig.Cluster.Sample(250*time.Millisecond, newStreamProbe(rig, h, nil).sample); err != nil {
			t.Fatal(err)
		}
		rig.Cluster.RunProgram(*rig.Program, 0)
		rig.Cluster.Close()
		h.close()

		streamed := map[string]int{}
		engaged := map[string]bool{}
		for ev := range ch {
			if ev.kind != "failsafe" {
				continue
			}
			var rec failSafeRec
			if err := json.Unmarshal(ev.data, &rec); err != nil {
				t.Fatal(err)
			}
			key := rec.Node + "/" + rec.Lane
			if rec.Engaged == engaged[key] {
				t.Errorf("%s: edge at %d ms does not alternate", key, rec.TMS)
			}
			engaged[key] = rec.Engaged
			streamed[key]++
		}
		logged := map[string]int{}
		for i, nc := range rig.Nodes {
			for _, l := range nc.Lanes {
				if n := len(l.Binding.FailSafeEvents()); n > 0 {
					logged[rig.Cluster.Nodes[i].Name+"/"+l.Name] = n
				}
			}
		}
		name := cs.Fan + "/" + cs.DVFS + "/" + cs.Sleep
		if len(logged) == 0 {
			t.Fatalf("%s: no lane escalated, so nothing was checked", name)
		}
		if fmt.Sprint(streamed) != fmt.Sprint(logged) {
			t.Errorf("%s: streamed edges %v, lanes logged %v", name, streamed, logged)
		}
	}
}

// TestStreamProbeSkipsEncodeWithoutSubscriber checks that a job no
// stream client watches encodes no record: with no subscriber a sample
// allocates nothing (json.Marshal would), and once one subscribes the
// next sample reaches it.
func TestStreamProbeSkipsEncodeWithoutSubscriber(t *testing.T) {
	rig, err := config.Scenario{Nodes: 2, Program: "bt", Workers: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Cluster.Close()
	h := newHub(nil)
	p := newStreamProbe(rig, h, nil)
	frame := make([]float64, 2*cluster.FrameWidth)
	if allocs := testing.AllocsPerRun(100, func() { p.sample(time.Second, frame) }); allocs != 0 {
		t.Errorf("sample with no subscriber allocates %v times, want 0 (no encode)", allocs)
	}
	ch := h.subscribe()
	p.sample(2*time.Second, frame)
	select {
	case ev := <-ch:
		if ev.kind != "sample" {
			t.Errorf("subscriber got a %q record, want sample", ev.kind)
		}
	default:
		t.Error("subscriber got no record")
	}
}
