package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/experiment"
	"thermctl/internal/report"
)

// paperSteps are report.Collect's calls, in its order, so a traced
// child can time each experiment and still render the same report.
var paperSteps = []struct {
	name string
	run  func(a *report.All, seed uint64) error
}{
	{"fig2", func(a *report.All, s uint64) (err error) { a.Fig2, err = experiment.Fig2(s); return }},
	{"fig5", func(a *report.All, s uint64) (err error) { a.Fig5, err = experiment.Fig5(s); return }},
	{"fig6", func(a *report.All, s uint64) (err error) { a.Fig6, err = experiment.Fig6(s); return }},
	{"fig7", func(a *report.All, s uint64) (err error) { a.Fig7, err = experiment.Fig7(s); return }},
	{"fig8", func(a *report.All, s uint64) (err error) { a.Fig8, err = experiment.Fig8(s); return }},
	{"fig9", func(a *report.All, s uint64) (err error) { a.Fig9, err = experiment.Fig9(s); return }},
	{"table1", func(a *report.All, s uint64) (err error) { a.Table1, err = experiment.Table1(s); return }},
	{"fig10", func(a *report.All, s uint64) (err error) { a.Fig10, err = experiment.Fig10(s); return }},
	{"fanfailure", func(a *report.All, s uint64) (err error) { a.FanFailure, err = experiment.FanFailure(s); return }},
	{"scaling", func(a *report.All, s uint64) (err error) { a.Scaling, err = experiment.Scaling(s); return }},
	{"rack", func(a *report.All, s uint64) (err error) { a.Rack, err = experiment.RackStudy(s); return }},
	{"workloads", func(a *report.All, s uint64) (err error) { a.Workloads, err = experiment.WorkloadStudy(s); return }},
	{"chaos", func(a *report.All, s uint64) (err error) { a.Chaos, err = experiment.Chaos(s); return }},
	{"metrics", func(a *report.All, s uint64) (err error) { a.Metrics, err = report.CollectMetrics(s); return }},
}

// evaluate runs report.Collect's steps one by one and renders the
// report, the way `experiments -markdown` does. It returns the report
// and each step's host time in ms, in paperSteps order, then the
// rendering's.
func evaluate(seed uint64, workers int) ([]byte, []float64, error) {
	experiment.Workers = workers
	a := &report.All{}
	ms := make([]float64, 0, len(paperSteps)+1)
	for _, s := range paperSteps {
		t := time.Now()
		if err := s.run(a, seed); err != nil {
			return nil, nil, err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	var buf bytes.Buffer
	t := time.Now()
	if err := a.Markdown(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), append(ms, float64(time.Since(t))/1e6), nil
}

// collect is report.Collect plus Markdown, the reference the stepwise
// evaluation must reproduce byte for byte.
func collect(seed uint64, workers int) ([]byte, error) {
	experiment.Workers = workers
	a, err := report.Collect(seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = a.Markdown(&buf)
	return buf.Bytes(), err
}

// paperChild runs paper-eval: full evaluations back to back at
// experiment.Workers=nproc, each a window whose requests are its
// experiments, each checked to render the same report. The warm-up
// runs at Workers=1 and takes its digest from report.Collect, so the
// run checks the stepwise evaluation against Collect and the report
// against the worker count. The traced child adds one report.Collect
// at Workers=1 for the parallel speed-up and builds the ledger on the
// paper's standard 4-node scenario.
func paperChild(p params, role string) (*childResult, error) {
	workers := runtime.GOMAXPROCS(0)
	if role == roleWarmup {
		workers = 1
	}
	res := newChildResult()
	res.Workers["experiment_workers"] = workers
	l := newLedger()

	// Set-up: the paper's standard run through the scenario layer.
	std := config.DefaultScenario()
	std.Seed = p.Seed
	doc, err := json.Marshal(std)
	if err != nil {
		return nil, err
	}
	reps, err := repeatSetup(p.setupFloor(), func() (time.Duration, error) {
		t := time.Now()
		sc, err := config.ReadScenarioDir(bytes.NewReader(doc), "")
		if err != nil {
			return 0, err
		}
		rig, err := sc.Build()
		if err != nil {
			return 0, err
		}
		d := time.Since(t)
		rig.Cluster.Close()
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = median(reps)
	l.builds = scale(reps, 1e3)

	// The report has no DEVIATION verdict at the paper's own seed.
	checkVerdicts := func(md []byte) {
		res.check(!bytes.Contains(md, []byte("DEVIATION")), "paper-eval: DEVIATION verdict at seed %d", experiment.Seed)
	}
	var ref []byte
	if role == roleWarmup {
		if p.Seed != experiment.Seed {
			md, err := collect(experiment.Seed, workers)
			if err != nil {
				return nil, err
			}
			checkVerdicts(md)
		}
		if ref, err = collect(p.Seed, workers); err != nil {
			return nil, err
		}
	}

	var parts []window
	steps := make([][]float64, len(paperSteps)+1)
	peakRSS := measureStart()
	deadline := time.Now().Add(p.duration())
	for len(parts) == 0 || time.Now().Before(deadline) {
		cpu := cpuTime()
		t := time.Now()
		md, ms, err := evaluate(p.Seed, workers)
		if err != nil {
			return nil, err
		}
		parts = append(parts, window{items: 1, wall: time.Since(t), cpu: cpuTime() - cpu, lat: ms[:len(paperSteps)]})
		res.Metrics["max_rss_mb"] = peakRSS() // over the first evaluation
		for i, x := range ms {
			steps[i] = append(steps[i], x)
		}
		if ref == nil {
			ref = md
		}
		res.check(bytes.Equal(md, ref), "paper-eval: report differs from the first evaluation's")
		if p.Seed == experiment.Seed {
			checkVerdicts(md)
		}
	}
	res.Attempted += len(parts)
	res.Digest = digestOf(ref)
	res.Windows = windowMetrics(parts)

	if role == roleTraced {
		t := time.Now()
		md, err := collect(p.Seed, 1)
		if err != nil {
			return nil, err
		}
		serial := time.Since(t)
		res.check(bytes.Equal(md, ref), "paper-eval: report.Collect at Workers=1 differs from the stepwise evaluation at Workers=%d", workers)
		if _, _, err := ledgerRigs(p, res, l, [][]byte{doc}, p.Dir, false); err != nil {
			return nil, err
		}
		res.Layers = l.values()
		res.Aggs = l.aggs()
		var walls []float64
		for _, w := range parts {
			walls = append(walls, w.wall.Seconds())
		}
		res.Layers["cluster.parallel_speedup"] = serial.Seconds() / median(walls)
		for i, xs := range steps {
			name := "report.markdown_ms"
			if i < len(paperSteps) {
				name = "experiment." + paperSteps[i].name + "_ms"
			}
			res.Layers[name] = median(xs)
			res.Aggs[name] = aggOf(xs)
		}
	}
	return res, nil
}
