// Command bench is the repository benchmark. It drives the simulator
// only through its exported entry points — scenario JSON, the config
// layer's Build, the cluster step loop, the trace probe, the paper
// report and the campaign server's HTTP API — on four workloads, and
// times each layer from outside by wrapping the calls it makes itself.
//
// An untraced run prints the end-to-end metrics of one workload: a
// discarded warm-up, then three epochs, each in a fresh child process,
// and the median of each metric over the epochs. A traced run
// (--trace 1) runs the workload once untraced and once instrumented,
// and prints the per-layer ledger. See README.md.
//
//	sh bench/run.sh --workload fleet-auto --seed 1 --seconds 15 --trace 0
//	sh bench/run.sh -compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// each one; what an item and a request are depends on the workload
// (see workloads).
var endToEnd = []metric{
	{"items_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ns_per_item", "ns"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, named <module>.<metric>. A
// layer the workload does not exercise reads 0.
var perLayer = []metric{
	{"node.step_ns", "ns"},
	{"cpu.step_ns", "ns"},
	{"power.breakdown_ns", "ns"},
	{"adt7467.chip_step_ns", "ns"},
	{"sensor.read_ns", "ns"},
	{"fan.step_ns", "ns"},
	{"thermal.step_ns", "ns"},
	{"power.meter_sample_ns", "ns"},
	{"cpufreq.account_ns", "ns"},
	{"workload.utilization_ns", "ns"},
	{"node.attributed_pct", "%"},
	{"hwmon.read_temp_ns", "ns"},
	{"hwmon.write_pwm_ns", "ns"},
	{"cpufreq.set_speed_ns", "ns"},
	{"cluster.parallel_phase_us", "us"},
	{"cluster.post_phase_us", "us"},
	{"cluster.parallel_speedup", "ratio"},
	{"core.node_control_ns", "ns"},
	{"core.round_ns", "ns"},
	{"core.idle_call_ns", "ns"},
	{"core.actuation_ratio", "ratio"},
	{"tracefile.probe_us", "us"},
	{"tracefile.append_ns", "ns"},
	{"tracefile.bytes_per_sample", "B"},
	{"config.build_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.report_fetch_ms", "ms"},
	{"server.trace_bytes_per_job", "B"},
	{"experiment.fig2_ms", "ms"},
	{"experiment.fig5_ms", "ms"},
	{"experiment.fig6_ms", "ms"},
	{"experiment.fig7_ms", "ms"},
	{"experiment.fig8_ms", "ms"},
	{"experiment.fig9_ms", "ms"},
	{"experiment.table1_ms", "ms"},
	{"experiment.fig10_ms", "ms"},
	{"experiment.fanfailure_ms", "ms"},
	{"experiment.scaling_ms", "ms"},
	{"experiment.rack_ms", "ms"},
	{"experiment.workloads_ms", "ms"},
	{"experiment.chaos_ms", "ms"},
	{"experiment.metrics_ms", "ms"},
	{"report.markdown_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// workloads maps each workload to the function a child process runs.
var workloads = map[string]func(params, string) (*childResult, error){
	"fleet-auto":    fleetChild,
	"fleet-unified": fleetChild,
	"paper-eval":    paperChild,
	"campaign":      campaignChild,
}

// Child roles.
const (
	roleWarmup = "warmup" // short, discarded; runs the once-per-run checks
	roleEpoch  = "epoch"  // untraced measurement
	roleTraced = "traced" // instrumented measurement and calibration
)

// params is what one child runs.
type params struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measuring time of this child
	Smoke    bool
	Dir      string // scratch directory, removed when the run ends
}

func (p params) duration() time.Duration { return time.Duration(p.Seconds * float64(time.Second)) }

// setupFloor is the least host time a child repeats its set-up for.
func (p params) setupFloor() time.Duration {
	if p.Smoke {
		return 0
	}
	return 200 * time.Millisecond
}

// childResult is what a child reports to the parent, as JSON on its
// standard output.
type childResult struct {
	Metrics   map[string]float64   `json:"metrics"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	Aggs      map[string]agg       `json:"aggs,omitempty"`
	Windows   []map[string]float64 `json:"windows"`
	Digest    string               `json:"digest"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Workers   map[string]int       `json:"workers"`
}

func newChildResult() *childResult {
	return &childResult{Metrics: map[string]float64{}, Workers: map[string]int{}}
}

// check counts one correctness check, and a failure when !ok.
func (r *childResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.problem(format, args...)
	}
}

func (r *childResult) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// measureStart readies a child for its measuring time: it collects the
// set-up's garbage and returns it to the OS, then samples the resident
// set every 10 ms until peakRSS is first called, which stops the
// sampling and returns the peak in MiB. Children call it once a fixed
// amount of work is done, so a faster program does not read as a
// bigger one, and set-up, which repeats builds, does not count.
func measureStart() (peakRSS func() float64) {
	runtime.GC()
	debug.FreeOSMemory()
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := residentMiB()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- max(peak, residentMiB())
				return
			case <-tick.C:
				peak = max(peak, residentMiB())
			}
		}
	}()
	var once sync.Once
	var peak float64
	return func() float64 {
		once.Do(func() {
			close(stop)
			peak = <-done
		})
		return peak
	}
}

// residentMiB is the process's resident set now, from /proc/self/statm.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// host records what the numbers were measured on.
type host struct {
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	Workers    map[string]int `json:"workers"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one run's full result, printed as one JSON line before the
// summary line; -compare reads these.
type record struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Trace     int                  `json:"trace"`
	Seconds   float64              `json:"seconds"`
	Host      host                 `json:"host"`
	Metrics   map[string]float64   `json:"metrics"`
	Epochs    []map[string]float64 `json:"epochs,omitempty"`
	Layers    map[string]agg       `json:"layers,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
}

// runner starts children: as processes of this binary, or in this
// process for the smoke test.
type runner struct {
	inProcess bool
}

func (r runner) child(p params, role string) (*childResult, error) {
	if r.inProcess {
		return workloads[p.Workload](p, role)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", role, "-workload", p.Workload, "-seed", strconv.FormatUint(p.Seed, 10),
		"-seconds", strconv.FormatFloat(p.Seconds, 'g', -1, 64), "-workdir", p.Dir}
	if p.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	return &res, nil
}

// measure runs one workload: warm-up, then three untraced epochs, or
// one untraced and one traced child. The smoke scale skips the warm-up
// and runs one epoch.
func (r runner) measure(p params, traced bool) (*record, error) {
	type stage struct {
		role string
		frac float64
	}
	stages := []stage{{roleWarmup, 0.05}, {roleEpoch, 1.0 / 3}, {roleEpoch, 1.0 / 3}, {roleEpoch, 1.0 / 3}}
	if traced {
		stages = []stage{{roleWarmup, 0.05}, {roleEpoch, 0.5}, {roleTraced, 0.5}}
	}
	if p.Smoke {
		stages = stages[1:]
		if !traced {
			stages = stages[:1]
		}
	}
	rec := &record{Workload: p.Workload, Seed: p.Seed, Seconds: p.Seconds, Metrics: map[string]float64{},
		Host: host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPUModel: cpuModel(), Workers: map[string]int{}}}
	if traced {
		rec.Trace = 1
	}
	var results []*childResult
	var windows []map[string]float64
	for i, s := range stages {
		cp := p
		cp.Seconds = p.Seconds * s.frac
		cp.Dir = filepath.Join(p.Dir, fmt.Sprintf("%d-%s", i, s.role))
		if err := os.MkdirAll(cp.Dir, 0o755); err != nil {
			return nil, err
		}
		res, err := r.child(cp, s.role)
		if err != nil {
			return nil, err
		}
		for k, v := range medians(res.Windows) {
			res.Metrics[k] = v
		}
		if err := os.RemoveAll(cp.Dir); err != nil {
			return nil, err
		}
		rec.Attempted += res.Attempted
		rec.Failed += res.Failed
		rec.Problems = append(rec.Problems, res.Problems...)
		for k, v := range res.Workers {
			rec.Host.Workers[k] = v
		}
		// Every child simulates the same inputs, so every child must
		// produce the same outputs: the warm-up at other worker counts,
		// the traced child under the timers.
		if len(results) > 0 {
			rec.Attempted++
			if res.Digest != results[0].Digest {
				rec.Failed++
				rec.Problems = append(rec.Problems, fmt.Sprintf("%s: %s child output digest %s differs from %s child's %s",
					p.Workload, s.role, res.Digest, stages[0].role, results[0].Digest))
			}
		}
		results = append(results, res)
		if s.role != roleWarmup {
			rec.Epochs = append(rec.Epochs, res.Metrics)
			windows = append(windows, res.Windows...)
		}
	}

	last := results[len(results)-1]
	if traced {
		for _, m := range perLayer {
			rec.Metrics[m.name] = last.Layers[m.name]
		}
		base := results[len(results)-2].Metrics["items_per_s"]
		rec.Metrics["trace_overhead_pct"] = 100 * (base/last.Metrics["items_per_s"] - 1)
		rec.Layers = last.Aggs
		return rec, nil
	}
	// Window metrics pool every epoch's windows; the others are per epoch.
	for k, v := range medians(windows) {
		rec.Metrics[k] = v
	}
	epochs := medians(rec.Epochs)
	for _, name := range []string{"setup_s", "max_rss_mb"} {
		rec.Metrics[name] = epochs[name]
	}
	return rec, nil
}

// medians is the median of each metric over ms.
func medians(ms []map[string]float64) map[string]float64 {
	xs := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			xs[k] = append(xs[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range xs {
		out[k] = median(v)
	}
	return out
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics are the metrics the record reports.
func (rec *record) metrics() []metric {
	if rec.Trace == 1 {
		return perLayer
	}
	return endToEnd
}

func (rec *record) summary() summary {
	s := summary{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valueUnit{}}
	for _, m := range rec.metrics() {
		s.Metrics[m.name] = valueUnit{Value: rec.Metrics[m.name], Unit: m.unit}
	}
	return s
}

// print writes a human-readable table to w, then the record line and
// the summary line to out.
func (rec *record) print(w, out io.Writer) error {
	fmt.Fprintf(w, "%s seed %d (%d attempted, %d failed):\n", rec.Workload, rec.Seed, rec.Attempted, rec.Failed)
	for _, m := range rec.metrics() {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, rec.Metrics[m.name], m.unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(rec.summary())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fleet-auto, fleet-unified, paper-eval or campaign")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 15, "measuring time of the run, in host seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "run at a tiny scale, for tests")
	compare := fs.Bool("compare", false, "compare two files of run records: -compare parent change")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	child := fs.String("child", "", "internal: run one child of a run with this role")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "tmp"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: parent and change")
			return 2
		}
		if err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want fleet-auto, fleet-unified, paper-eval or campaign)\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: --trace %d: want 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: --seconds %v: must be positive\n", *seconds)
		return 2
	}
	p := params{Workload: *workload, Seed: *seed, Seconds: *seconds, Smoke: *smoke, Dir: *workdir}

	if *child != "" {
		res, err := workloads[p.Workload](p, *child)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s %s child: %v\n", p.Workload, *child, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	// A parallel number taken on one CPU proves nothing.
	if n := runtime.GOMAXPROCS(0); n < 2 {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS is %d; refusing to record: the workloads step in parallel and need at least 2\n", n)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p.Dir = dir
	rec, err := runner{}.measure(p, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", p.Workload, err)
		return 1
	}
	if err := rec.print(stderr, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}
