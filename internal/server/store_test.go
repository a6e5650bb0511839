package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermctl/internal/config"
)

// logLine is one job log line with the scenario and report kept raw,
// so a test can re-read the scenario as a document and compare the
// report bytes with the report route's.
type logLine struct {
	ID          string          `json:"id"`
	Name        string          `json:"name"`
	State       State           `json:"state"`
	Error       string          `json:"error"`
	SubmittedAt string          `json:"submitted_at"`
	StartedAt   string          `json:"started_at"`
	FinishedAt  string          `json:"finished_at"`
	Scenario    json.RawMessage `json:"scenario"`
	Report      json.RawMessage `json:"report"`
}

// readJobLog decodes every line of the store's job log strictly: a
// torn or interleaved line, an unknown field or a missing final
// newline fails the test.
func readJobLog(t testing.TB, dir string) []logLine {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, jobLogName))
	if err != nil {
		t.Fatalf("job log: %v", err)
	}
	if !bytes.HasSuffix(b, []byte("\n")) {
		t.Fatalf("job log does not end in a newline: %q", b)
	}
	var out []logLine
	for i, raw := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var l logLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("job log line %d: %v: %s", i+1, err, raw)
		}
		if dec.More() {
			t.Fatalf("job log line %d holds more than one record: %s", i+1, raw)
		}
		out = append(out, l)
	}
	return out
}

// jobLine returns the job's one line in the log under dir.
func jobLine(t testing.TB, dir, id string) logLine {
	t.Helper()
	var found []logLine
	for _, l := range readJobLog(t, dir) {
		if l.ID == id {
			found = append(found, l)
		}
	}
	if len(found) != 1 {
		t.Fatalf("job %s has %d log lines, want 1", id, len(found))
	}
	return found[0]
}

// lineScenario re-reads a log line's scenario as a submitted document.
func lineScenario(t testing.TB, l logLine) config.Scenario {
	t.Helper()
	sc, err := config.ReadScenarioDir(bytes.NewReader(l.Scenario), "")
	if err != nil {
		t.Fatalf("job %s: logged scenario does not round-trip: %v", l.ID, err)
	}
	return sc
}

// storeTree lists every path under dir with its size; directories
// count as entries too.
func storeTree(t testing.TB, dir string) map[string]int64 {
	t.Helper()
	tree := map[string]int64{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == dir {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		tree[rel] = info.Size()
		return nil
	})
	if err != nil {
		t.Fatalf("walk store: %v", err)
	}
	return tree
}

// getReport fetches the job's report route.
func getReport(t testing.TB, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	return resp.StatusCode, b
}

// TestJobLogRecordsEveryTerminalJob: each terminal path writes one
// line: done, failed, canceled in the queue and canceled while
// running. The line echoes the job's view, its scenario re-reads and
// builds, and its report is the report route's, byte for byte.
func TestJobLogRecordsEveryTerminalJob(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, Dir: dir, GeneratorHorizon: 1000 * time.Hour})
	release := make(chan struct{})
	s.hookRunning = func(j *Job) {
		switch j.scenario.Name {
		case "park":
			<-release
		case "fail":
			// A directory where the trace goes fails the job after
			// its rig built. No scenario that passes admission fails
			// Build, so this is the failure path a test can reach.
			if err := os.Mkdir(s.store.TracePath(j.ID()), 0o755); err != nil {
				t.Error(err)
			}
		}
	}

	specs := []string{
		`{"name": "park", "nodes": 2, "program": "bt"}`,
		`{"name": "run", "nodes": 2}`,
		`{"name": "queued", "nodes": 2, "program": "bt"}`,
		`{"name": "fail", "nodes": 3, "program": "lu"}`,
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = submit(t, ts, spec).ID
		if i == 0 {
			waitHookParked(t, s, ids[0])
		}
	}
	if status := deleteJob(t, ts, ids[2]); status != http.StatusAccepted {
		t.Fatalf("DELETE queued: status %d", status)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for getView(t, ts, ids[1]).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("generator job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status := deleteJob(t, ts, ids[1]); status != http.StatusAccepted {
		t.Fatalf("DELETE running: status %d", status)
	}
	// Shutdown drains the queue: the canceled job's worker writes its
	// line when it dequeues it.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	lines := readJobLog(t, dir)
	if len(lines) != len(specs) {
		t.Fatalf("job log has %d lines, want %d", len(lines), len(specs))
	}
	want := []State{StateDone, StateCanceled, StateCanceled, StateFailed}
	for i, id := range ids {
		l := jobLine(t, dir, id)
		v := getView(t, ts, id)
		if l.State != want[i] || v.State != want[i] {
			t.Errorf("job %s: logged %s, view %s, want %s (error %q)", l.Name, l.State, v.State, want[i], v.Error)
		}
		if l.Name != v.Name || l.Error != v.Error || l.SubmittedAt != v.SubmittedAt ||
			l.StartedAt != v.StartedAt || l.FinishedAt != v.FinishedAt {
			t.Errorf("job %s: line %+v does not echo view %+v", l.Name, l, v)
		}

		sc := lineScenario(t, l)
		var sub config.Scenario
		if err := json.Unmarshal([]byte(specs[i]), &sub); err != nil {
			t.Fatal(err)
		}
		if sc.Name != sub.Name || sc.Nodes != sub.Nodes || sc.Program != sub.Program {
			t.Errorf("job %s: logged scenario %s/%d/%q, submitted %s/%d/%q",
				l.Name, sc.Name, sc.Nodes, sc.Program, sub.Name, sub.Nodes, sub.Program)
		}
		rig, err := sc.Build()
		if err != nil {
			t.Errorf("job %s: logged scenario does not build: %v", l.Name, err)
		} else {
			rig.Cluster.Close()
		}

		status, body := getReport(t, ts, id)
		null := len(l.Report) == 0 || string(l.Report) == "null"
		if null != (status != http.StatusOK) {
			t.Errorf("job %s: report route %d, logged report %s", l.Name, status, l.Report)
			continue
		}
		if status == http.StatusOK {
			var compact bytes.Buffer
			if err := json.Compact(&compact, body); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(compact.Bytes(), l.Report) {
				t.Errorf("job %s: logged report differs from the report route:\n%s\n%s", l.Name, l.Report, compact.Bytes())
			}
		} else if status != http.StatusNotFound {
			t.Errorf("job %s: report route %d, want 404", l.Name, status)
		}
	}
	if l := jobLine(t, dir, ids[1]); !strings.Contains(string(l.Report), `"canceled":true`) {
		t.Errorf("canceled run logged report %s, want its partial summary", l.Report)
	}
}

// TestJobLogWholeLinesUnderConcurrency: four workers finishing jobs at
// once each append a whole line; none tears or interleaves.
func TestJobLogWholeLinesUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 4, Dir: dir})
	want := map[string]bool{}
	for i := 0; i < 12; i++ {
		want[submit(t, ts, btSpec).ID] = true
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := readJobLog(t, dir)
	if len(lines) != len(want) {
		t.Fatalf("job log has %d lines, want %d", len(lines), len(want))
	}
	for _, l := range lines {
		if !want[l.ID] || l.State != StateDone {
			t.Errorf("line for %s in state %s; want one done line per submitted job", l.ID, l.State)
		}
		delete(want, l.ID)
	}
}

// TestJobLogAppendsAcrossServers: a second server on the same root
// appends to the log the first one wrote.
func TestJobLogAppendsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	var ids []string
	for range 2 {
		s, ts := newTestServer(t, Config{Dir: dir})
		ids = append(ids, submit(t, ts, btSpec).ID)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	lines := readJobLog(t, dir)
	if len(lines) != 2 || lines[0].ID != ids[0] || lines[1].ID != ids[1] {
		t.Fatalf("job log holds %+v, want the lines of %v in order", lines, ids)
	}
}

// TestNewCreatesNoFile: starting and stopping a server leaves the
// store root empty; the job log opens on the first job.
func TestNewCreatesNoFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if tree := storeTree(t, dir); len(tree) != 0 {
		t.Errorf("New created %v", tree)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tree := storeTree(t, dir); len(tree) != 0 {
		t.Errorf("Shutdown left %v", tree)
	}
}

// TestRefusedSubmissionLeavesStoreUntouched: a submission refused
// with 429 (queue full) or 503 (draining) writes nothing to disk.
func TestRefusedSubmissionLeavesStoreUntouched(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Dir: dir})
	release := make(chan struct{})
	s.hookRunning = func(*Job) { <-release }
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	a := submit(t, ts, btSpec)
	waitHookParked(t, s, a.ID)
	submit(t, ts, btSpec)

	before := storeTree(t, dir)
	if _, status := trySubmit(t, ts, btSpec); status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", status)
	}
	if after := storeTree(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("429 changed the store: %v -> %v", before, after)
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
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
	if after := storeTree(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("503 changed the store: %v -> %v", before, after)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkJobRoundTrip runs one 4-node examples/cluster-sleep.json
// job per iteration through the API: submit, follow the stream to the
// terminal state, fetch the report. files_created/op counts the new
// entries under the store root; each job must create exactly one, its
// trace.
func BenchmarkJobRoundTrip(b *testing.B) {
	spec, err := os.ReadFile("../../examples/cluster-sleep.json")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	_, ts := newTestServer(b, Config{Dir: dir})
	roundTrip := func() {
		v, status := trySubmit(b, ts, string(spec))
		if status != http.StatusAccepted {
			b.Fatalf("submit: status %d", status)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if st, _ := getReport(b, ts, v.ID); st != http.StatusOK {
			b.Fatalf("job %s report: status %d (view %+v)", v.ID, st, getView(b, ts, v.ID))
		}
	}
	// One job first, so the shared log exists before the count starts.
	roundTrip()
	before := len(storeTree(b, dir))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	created := len(storeTree(b, dir)) - before
	b.ReportMetric(float64(created)/float64(b.N), "files_created/op")
	if created != b.N {
		b.Fatalf("%d jobs created %d store entries, want one each", b.N, created)
	}
}
