package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"thermctl/internal/tracefile"
)

// scrape fetches the /metrics endpoint and returns the body.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("scrape: content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return string(body)
}

// sampleValue extracts the value of an unlabeled sample line
// ("name 42") from an exposition body.
func sampleValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("sample %s: bad value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in scrape", name)
	return 0
}

// TestDaemonServesMetrics starts the daemon on the simulated stack with
// -listen, scrapes /metrics while it runs, and checks that the core
// series are present and monotone between scrapes.
func TestDaemonServesMetrics(t *testing.T) {
	stop := make(chan struct{})
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	o := options{
		pp:      50,
		maxDuty: 30, // weak cap: mode transitions happen quickly
		// Effectively unbounded: the stop channel, not the simulated
		// duration, ends this run (the loop covers hours of simulated
		// time per wall second).
		duration: 100000 * time.Hour,
		listen:   "127.0.0.1:0",
		seed:     1,
		every:    time.Hour,
		stop:     stop,
		onListen: func(a string) { addrCh <- a },
	}
	var out bytes.Buffer
	go func() { done <- run(o, &out) }()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start listening within 10s")
	}
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	first := scrape(t, addr)
	for _, want := range []string{
		"# TYPE thermctl_controller_mode_transitions_total counter",
		"# TYPE thermctl_daemon_step_seconds histogram",
		"thermctl_daemon_step_seconds_bucket{le=\"+Inf\"}",
		"thermctl_controller_rounds_total",
		"thermctl_tdvfs_rounds_total",
		"thermctl_fan_duty_transitions_total",
		"thermctl_adt7467_register_writes_total",
		"thermctl_daemon_steps_total",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The loop runs flat out, so a short wall wait advances it by many
	// steps; the counters must be monotone non-decreasing and the step
	// counter strictly increasing.
	steps1 := sampleValue(t, first, "thermctl_daemon_steps_total")
	rounds1 := sampleValue(t, first, "thermctl_controller_rounds_total")
	deadline := time.Now().Add(10 * time.Second)
	for {
		second := scrape(t, addr)
		steps2 := sampleValue(t, second, "thermctl_daemon_steps_total")
		rounds2 := sampleValue(t, second, "thermctl_controller_rounds_total")
		if steps2 < steps1 || rounds2 < rounds1 {
			t.Fatalf("counters went backwards: steps %v→%v, rounds %v→%v",
				steps1, steps2, rounds1, rounds2)
		}
		if steps2 > steps1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("step counter did not advance within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunRejectsBadConfig exercises the error path without os.Exit.
func TestRunRejectsBadConfig(t *testing.T) {
	o := options{pp: 0, maxDuty: 50, duration: time.Second}
	if err := run(o, io.Discard); err == nil {
		t.Fatal("pp=0 accepted")
	}
}

// TestRunCompletes runs a short daemon lifetime end-to-end, without a
// listener, and checks the final report is written.
func TestRunCompletes(t *testing.T) {
	var out bytes.Buffer
	o := options{pp: 50, maxDuty: 50, duration: 30 * time.Second, seed: 1, every: time.Minute}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "final: die") {
		t.Errorf("missing final report in output:\n%s", out.String())
	}
}

// TestRunWritesTrace checks the -trace wiring end to end: the daemon
// records a complete, readable .tct file whose sample count matches
// the step count.
func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.tct")
	var out bytes.Buffer
	o := options{pp: 50, maxDuty: 50, duration: 10 * time.Second, seed: 1,
		every: time.Minute, trace: path}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace: "+path) {
		t.Errorf("missing trace report in output:\n%s", out.String())
	}
	r, closer, err := tracefile.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if err := r.Incomplete(); err != nil {
		t.Fatalf("Incomplete: %v", err)
	}
	// 10s at 250ms steps = 40 step records of 4 series each.
	if ns, _ := r.Counts(); ns != 160 {
		t.Fatalf("trace holds %d samples, want 160", ns)
	}
	if got := r.Schema()[0].Name; got != "n0_temp" {
		t.Fatalf("first series = %q", got)
	}
}

// TestRunFaultsReportsLaneErrors replays a sensor-dropout drill and
// checks the final lane report. A static fan counts its failed reads on
// its own binding, so its errors must show; the default hybrid's line
// is pinned byte for byte.
func TestRunFaultsReportsLaneErrors(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "dropout.json")
	if err := os.WriteFile(plan, []byte(`{"name": "dropout", "schedules": [{"target": "thermctld",
		"episodes": [{"kind": "sensor-dropout", "start": "20s", "for": "15s"}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fan, dvfs string
		check     func(t *testing.T, line string)
	}{
		{"static", "none", func(t *testing.T, line string) {
			var errs int
			if _, err := fmt.Sscanf(line, "controller errors: %d;", &errs); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			if errs == 0 {
				t.Errorf("static fan under a 15 s sensor dropout reports 0 errors: %q", line)
			}
			if !strings.HasSuffix(line, "; fail-safe: fan 0 edges") {
				t.Errorf("line %q does not list the static fan lane", line)
			}
		}},
		{"dynamic", "tdvfs", func(t *testing.T, line string) {
			if want := "controller errors: 120; fail-safe: fan 2, dvfs 2 edges"; line != want {
				t.Errorf("hybrid lane report = %q, want %q", line, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.fan+"/"+tc.dvfs, func(t *testing.T) {
			var out bytes.Buffer
			o := options{pp: 50, maxDuty: 50, duration: time.Minute, seed: 1, every: time.Minute,
				fan: tc.fan, dvfs: tc.dvfs, sleep: "none", faults: plan}
			if err := run(o, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			tc.check(t, lines[len(lines)-1])
		})
	}
}
