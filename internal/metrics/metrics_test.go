package metrics

import (
	"context"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_events_total", "events seen")
	g := r.NewGauge("test_level", "current level")

	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2.0", got)
	}
	g.SetBool(true)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge after SetBool(true) = %v, want 1", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	g.SetBool(true)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d samples, want 1", len(snap))
	}
	s := snap[0]
	wantCum := []uint64{1, 3, 4, 5} // le=0.1, 1, 10, +Inf
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.CumulativeCount != wantCum[i] {
			t.Errorf("bucket %d (le=%v): cum = %d, want %d", i, b.UpperBound, b.CumulativeCount, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket must be +Inf")
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("dup_total", "", L("a", "1"))
	mustPanic("duplicate", func() { r.NewCounter("dup_total", "", L("a", "1")) })
	mustPanic("kind clash", func() { r.NewGauge("dup_total", "", L("a", "2")) })
	mustPanic("bad name", func() { r.NewCounter("1starts_with_digit", "") })
	mustPanic("bad name chars", func() { r.NewCounter("has-dash", "") })
	mustPanic("bad label", func() { r.NewCounter("ok_total", "", L("bad-key", "v")) })
	mustPanic("unsorted buckets", func() { r.NewHistogram("h_seconds", "", []float64{1, 1}) })

	// Same name, same kind, different labels: allowed (one family).
	r.NewCounter("dup_total", "", L("a", "2"))
}

func TestLabelOrderNormalized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate panic for permuted labels")
		}
	}()
	r := NewRegistry()
	r.NewCounter("perm_total", "", L("a", "1"), L("b", "2"))
	r.NewCounter("perm_total", "", L("b", "2"), L("a", "1"))
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("app_requests_total", "requests handled", L("node", "n0"))
	c.Add(7)
	r.NewCounter("app_requests_total", "requests handled", L("node", "n1"))
	g := r.NewGauge("app_temperature_celsius", "die temperature")
	g.Set(51.25)
	h := r.NewHistogram("app_step_seconds", "step latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := strings.Join([]string{
		"# HELP app_requests_total requests handled",
		"# TYPE app_requests_total counter",
		`app_requests_total{node="n0"} 7`,
		`app_requests_total{node="n1"} 0`,
		"# HELP app_step_seconds step latency",
		"# TYPE app_step_seconds histogram",
		`app_step_seconds_bucket{le="0.01"} 1`,
		`app_step_seconds_bucket{le="0.1"} 2`,
		`app_step_seconds_bucket{le="+Inf"} 2`,
		"app_step_seconds_sum 0.055",
		"app_step_seconds_count 2",
		"# HELP app_temperature_celsius die temperature",
		"# TYPE app_temperature_celsius gauge",
		"app_temperature_celsius 51.25",
		"",
	}, "\n")
	if got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("esc_total", "", L("path", "a\\b\"c\nd"))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\\b\"c\nd"} 0`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "")
	g := r.NewGauge("conc_level", "")
	h := r.NewHistogram("conc_seconds", "", []float64{0.5})

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
				// Concurrent scrapes must not race with updates.
				if i%100 == 0 {
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("hist count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-0.25*workers*per) > 1e-6 {
		t.Errorf("hist sum = %v, want %v", h.Sum(), 0.25*workers*per)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("served_total", "").Add(3)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "served_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}

// TestShutdownDrainsInFlight: Shutdown must let a request that is
// already being served run to completion (Close would sever it
// mid-body), then refuse new connections.
func TestShutdownDrainsInFlight(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	// A one-second runtime trace holds its connection busy long enough
	// that Shutdown provably overlaps an in-flight handler.
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/trace?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during in-flight request: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request truncated by Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestShutdownTimeoutIdle: the convenience wrapper returns promptly on
// an idle server and leaves it closed.
func TestShutdownTimeoutIdle(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ShutdownTimeout(5 * time.Second); err != nil {
		t.Fatalf("ShutdownTimeout on idle server: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still accepting connections after ShutdownTimeout")
	}
}
