package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/report"
	"thermctl/internal/server"
	"thermctl/internal/tracefile"
)

// campaignSpecs are the job specs the clients cycle through, copied
// from the examples gallery with workers: 1; campaignBase is the base
// the flash-crowd spec extends.
var campaignSpecs = []string{"cluster-sleep.json", "hetero-fleet.json", "loadshape-flashcrowd.json"}

const campaignBase = "fleet-base.json"

// rssJobs is how many jobs the peak resident set is taken over: the
// server keeps every job in its table, so over the whole measuring
// time a faster server would read as a bigger one.
const rssJobs = 200

// campaign is one in-process campaign server on a loopback listener.
type campaign struct {
	srv *server.Server
	ts  *httptest.Server
}

func startCampaign(dir, specDir string) (*campaign, error) {
	srv, err := server.New(server.Config{Workers: runtime.GOMAXPROCS(0), Dir: dir, ScenarioDir: specDir})
	if err != nil {
		return nil, err
	}
	c := &campaign{srv: srv, ts: httptest.NewServer(srv.Handler())}
	resp, err := http.Get(c.ts.URL + "/healthz")
	if err != nil {
		c.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return c, nil
}

func (c *campaign) stop() error {
	c.ts.Close()
	return c.srv.Shutdown(context.Background())
}

// job is one client round trip: POST the spec, follow the SSE stream
// to its terminal state frame, GET the report.
type job struct {
	spec      int
	id        string
	state     server.State
	latency   time.Duration // POST sent to report read
	submit    time.Duration // POST round trip
	fetch     time.Duration // report GET round trip
	queueWait time.Duration // started_at - submitted_at
	run       time.Duration // finished_at - started_at
	report    []byte
	nodes     int       // from the report, once it parsed
	done      time.Time // when the report was read
	cpu       time.Duration
	err       error
}

func runOne(cl *http.Client, url string, spec int, body []byte) job {
	j := job{spec: spec}
	t0 := time.Now()
	resp, err := cl.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	var v server.View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("submit: %s", resp.Status)
	}
	if err != nil {
		j.err = err
		return j
	}
	j.id, j.submit = v.ID, time.Since(t0)

	if v, err = follow(cl, url+"/v1/jobs/"+j.id+"/stream"); err != nil {
		j.err = err
		return j
	}
	j.state = v.State
	sub, err1 := time.Parse(time.RFC3339Nano, v.SubmittedAt)
	start, err2 := time.Parse(time.RFC3339Nano, v.StartedAt)
	end, err3 := time.Parse(time.RFC3339Nano, v.FinishedAt)
	if err1 == nil && err2 == nil && err3 == nil {
		j.queueWait, j.run = start.Sub(sub), end.Sub(start)
	}

	t1 := time.Now()
	j.report, j.err = get(cl, url+"/v1/jobs/"+j.id+"/report")
	j.done = time.Now()
	j.fetch = j.done.Sub(t1)
	j.latency = j.done.Sub(t0)
	j.cpu = cpuTime()
	return j
}

// follow reads a job's SSE stream until a state frame reports a
// terminal state, then drains the stream so the connection is reused.
func follow(cl *http.Client, url string) (server.View, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return server.View{}, err
	}
	defer resp.Body.Close()
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "state" {
			continue
		}
		var v server.View
		if err := json.Unmarshal([]byte(data), &v); err != nil {
			return v, err
		}
		if v.State.Terminal() {
			_, err := io.Copy(io.Discard, resp.Body)
			return v, err
		}
	}
	if err := sc.Err(); err != nil {
		return server.View{}, err
	}
	return server.View{}, fmt.Errorf("stream %s ended without a terminal state", url)
}

func get(cl *http.Client, url string) ([]byte, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

// campaignChild runs the campaign workload: nproc clients drive an
// in-process thermsrv closed loop, each submitting the next spec only
// after its previous job's report arrived, until the measuring time is
// up. Every job must end done with a parseable report, and every trace
// artifact must open with the full cluster schema. A traced child also
// builds the ledger by running each spec as an instrumented rig.
func campaignChild(p params, role string) (*childResult, error) {
	n := runtime.GOMAXPROCS(0)
	res := newChildResult()
	res.Workers["server_workers"] = n
	res.Workers["clients"] = n
	res.Workers["job_step_workers"] = 1
	l := newLedger()

	specDir := filepath.Join(p.Dir, "specs")
	if err := os.MkdirAll(specDir, 0o755); err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(campaignSpecs))
	for i, name := range append([]string{campaignBase}, campaignSpecs...) {
		doc, err := scenarioDoc("campaign/"+name, p.Seed, p.Smoke)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(specDir, name), doc, 0o644); err != nil {
			return nil, err
		}
		if i > 0 {
			bodies[i-1] = doc
		}
	}

	// Set-up: start the server and put each spec through the config
	// layer it will meet there; keep the last server.
	var c *campaign
	stores := 0
	reps, err := repeatSetup(p.setupFloor(), func() (time.Duration, error) {
		if c != nil {
			if err := c.stop(); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		var err error
		stores++
		if c, err = startCampaign(filepath.Join(p.Dir, fmt.Sprintf("store%d", stores)), specDir); err != nil {
			return 0, err
		}
		for _, body := range bodies {
			tb := time.Now()
			sc, err := config.ReadScenarioDir(bytes.NewReader(body), specDir)
			if err != nil {
				return 0, err
			}
			rig, err := sc.Build()
			if err != nil {
				return 0, err
			}
			rig.Cluster.Close()
			l.builds = append(l.builds, float64(time.Since(tb))/1e6)
		}
		return time.Since(t), nil
	})
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = median(reps)

	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr}
	var (
		mu       sync.Mutex
		jobs     []job
		finished int
		wg       sync.WaitGroup
	)
	peakRSS := measureStart()
	cpu := cpuTime()
	start := time.Now()
	deadline := start.Add(p.duration())
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := len(jobs)
				jobs = append(jobs, job{})
				mu.Unlock()
				// At least one job per spec, then until the time is up.
				if i >= len(bodies) && !time.Now().Before(deadline) {
					return
				}
				j := runOne(cl, c.ts.URL, i%len(bodies), bodies[i%len(bodies)])
				mu.Lock()
				jobs[i] = j
				finished++
				last := finished == rssJobs
				mu.Unlock()
				if last {
					peakRSS()
				}
			}
		}()
	}
	wg.Wait()
	res.Metrics["max_rss_mb"] = peakRSS()
	// Slots claimed past the deadline were never run.
	done := jobs[:0]
	for _, j := range jobs {
		if j.id != "" || j.err != nil {
			done = append(done, j)
		}
	}
	jobs = done
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].done.Before(jobs[b].done) })

	var submit, fetch, wait, run []float64
	var parts []window
	first := make([][]byte, len(bodies))
	prevDone, prevCPU := start, cpu
	for i := range jobs {
		j := &jobs[i]
		res.Attempted++
		if j.err == nil {
			parts = append(parts, window{wall: j.done.Sub(prevDone), cpu: j.cpu - prevCPU})
			prevDone, prevCPU = j.done, j.cpu
		}
		var sum report.CampaignSummary
		err := j.err
		if err == nil && j.state != server.StateDone {
			err = fmt.Errorf("job %s ended %s", j.id, j.state)
		}
		if err == nil {
			err = json.Unmarshal(j.report, &sum)
		}
		if err != nil {
			res.Failed++
			res.problem("campaign: %s job %s: %v", campaignSpecs[j.spec], j.id, err)
			continue
		}
		j.nodes = sum.Nodes
		if first[j.spec] == nil {
			first[j.spec] = j.report
		}
		parts[len(parts)-1].items = 1
		parts[len(parts)-1].lat = []float64{float64(j.latency) / 1e6}
		submit = append(submit, float64(j.submit)/1e6)
		fetch = append(fetch, float64(j.fetch)/1e6)
		wait = append(wait, float64(j.queueWait)/1e6)
		run = append(run, float64(j.run)/1e6)
	}
	d := newDigest()
	for _, r := range first {
		d.bytes(r)
	}
	res.Digest = d.String()
	res.Windows = windowMetrics(windowed(parts, windowSize))

	// After the clock stops: every trace artifact must read back.
	var traceBytes float64
	for _, j := range jobs {
		if j.nodes == 0 {
			continue
		}
		b, err := get(cl, c.ts.URL+"/v1/jobs/"+j.id+"/trace")
		if err == nil {
			var r *tracefile.Reader
			if r, err = tracefile.NewBytesReader(b); err == nil {
				_, err = checkReader(r, j.nodes)
			}
		}
		res.check(err == nil, "campaign: %s job %s trace: %v", campaignSpecs[j.spec], j.id, err)
		traceBytes += float64(len(b))
	}
	if err := c.stop(); err != nil {
		return nil, err
	}

	if role == roleTraced {
		serial, parallel, err := ledgerRigs(p, res, l, bodies, specDir, true)
		if err != nil {
			return nil, err
		}
		res.Layers = l.values()
		res.Layers["cluster.parallel_speedup"] = serial.Seconds() / parallel.Seconds()
		res.Aggs = l.aggs()
		for name, xs := range map[string][]float64{
			"server.submit_ms": submit, "server.queue_wait_ms": wait,
			"server.run_ms": run, "server.report_fetch_ms": fetch,
		} {
			res.Layers[name] = median(xs)
			res.Aggs[name] = aggOf(xs)
		}
		res.Layers["server.trace_bytes_per_job"] = traceBytes / float64(max(len(submit), 1))
	}
	return res, nil
}
