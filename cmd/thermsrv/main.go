// Command thermsrv is the multi-tenant campaign server: thermal
// control as a service. Clients POST config.Scenario documents — the
// same JSON that clustersim -scenario and the experiment harness read —
// and the server runs each as a simulated campaign on a bounded worker
// pool, streams live telemetry over Server-Sent Events, and keeps the
// .tct trace and JSON report per job in a disk store.
//
// Usage:
//
//	thermsrv [-listen 127.0.0.1:9600] [-dir thermsrv-data]
//	         [-workers 4] [-queue 64] [-sample 1s] [-gen-horizon 60s]
//	         [-scenarios dir] [-drain 30s]
//
// API (see DESIGN.md §13 and cmd/thermq for a client):
//
//	POST   /v1/jobs             submit a scenario; 202 with the job,
//	                            400 invalid, 429 queue full, 503 draining
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        one job's state
//	DELETE /v1/jobs/{id}        cancel (409 once terminal)
//	GET    /v1/jobs/{id}/stream live SSE telemetry: state, sample,
//	                            failsafe and fault events
//	GET    /v1/jobs/{id}/trace  the .tct artifact (thermtrace reads it)
//	GET    /v1/jobs/{id}/report the JSON campaign summary
//	GET    /metrics             Prometheus text, thermsrv_* instruments
//	GET    /healthz             liveness
//
// Quick start:
//
//	thermsrv &
//	curl -d @examples/cluster-sleep.json http://127.0.0.1:9600/v1/jobs
//
// On SIGINT/SIGTERM the server stops intake (new submissions get 503),
// drains running campaigns up to -drain, cancels whatever remains, and
// exits once every job is terminal.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thermctl/internal/metrics"
	"thermctl/internal/server"
)

// options holds the parsed command line plus the test hooks, so the
// server loop is runnable (and stoppable) from a test without flag
// registration or os.Exit.
type options struct {
	listen     string
	dir        string
	workers    int
	queue      int
	sample     time.Duration
	genHorizon time.Duration
	scenarios  string
	drain      time.Duration

	// stop, when non-nil, triggers shutdown from another goroutine the
	// way a signal would.
	//
	//thermlint:allow deadcode -- test seam: the server command tests stop a run through it
	stop <-chan struct{}
	// onListen, when non-nil, receives the bound address once the HTTP
	// server is up (tests listen on :0 and need the port).
	//
	//thermlint:allow deadcode -- test seam: the server command tests learn the bound address through it
	onListen func(addr string)
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:9600", "HTTP address to serve the API on")
	flag.StringVar(&o.dir, "dir", "thermsrv-data", "artifact store root (one directory per job)")
	flag.IntVar(&o.workers, "workers", 4, "concurrent campaigns; each job steps on at most GOMAXPROCS/workers cluster workers")
	flag.IntVar(&o.queue, "queue", 64, "queued submissions beyond the running jobs before 429")
	flag.DurationVar(&o.sample, "sample", time.Second, "trace and stream cadence in simulated time")
	flag.DurationVar(&o.genHorizon, "gen-horizon", 60*time.Second, "simulated run length for generator-driven (programless) jobs without a chaos horizon")
	flag.StringVar(&o.scenarios, "scenarios", "", "scenario library directory that submitted specs may \"extends\" from (empty refuses extends)")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "how long shutdown waits for running campaigns before canceling them")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "thermsrv:", err)
		os.Exit(1)
	}
}

// run assembles and serves the campaign service until a signal (or the
// test stop channel) asks for shutdown.
func run(o options, out io.Writer) error {
	reg := metrics.NewRegistry()
	srv, err := server.New(server.Config{
		Workers:          o.workers,
		QueueDepth:       o.queue,
		Dir:              o.dir,
		Registry:         reg,
		SampleEvery:      o.sample,
		GeneratorHorizon: o.genHorizon,
		ScenarioDir:      o.scenarios,
	})
	if err != nil {
		return err
	}

	// One mux: the campaign API plus the standard observability
	// endpoints (/metrics, /debug/pprof) every daemon in this repo
	// exposes.
	mux := metrics.NewServeMux(reg)
	api := srv.Handler()
	mux.Handle("/v1/", api)
	mux.Handle("/healthz", api)

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", o.listen, err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// Serve returns http.ErrServerClosed once Shutdown tears the
		// listener down; there is no caller left to report it to.
		_ = hs.Serve(ln)
	}()
	fmt.Fprintf(out, "thermsrv: %d workers, queue %d, artifacts in %s\n", o.workers, o.queue, o.dir)
	fmt.Fprintf(out, "thermsrv: serving on http://%s/v1/jobs\n", ln.Addr())
	if o.onListen != nil {
		o.onListen(ln.Addr().String())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(out, "thermsrv: %v, shutting down\n", s)
	case <-o.stop:
		fmt.Fprintln(out, "thermsrv: stop requested, shutting down")
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	// Campaigns first: once every job is terminal the SSE handlers have
	// sent their final state records, and the HTTP drain below is
	// quick.
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(out, "thermsrv:", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		// The drain budget is spent; cut the stragglers off.
		hs.Close()
	}
	fmt.Fprintln(out, "thermsrv: done")
	return nil
}
