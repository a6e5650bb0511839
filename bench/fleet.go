package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"thermctl/internal/config"
)

// fleetPrefix is the simulated prefix whose end state must be the same
// at workers=1, at workers=nproc and under the benchmark's timers, and
// over which the peak resident set is taken.
func fleetPrefix(smoke bool) time.Duration {
	if smoke {
		return 5 * time.Second
	}
	return 60 * time.Second
}

// fleetChild runs fleet-auto or fleet-unified: set up repeatedly,
// simulate the prefix serially for the reference digest, then step the
// last rig at workers=nproc for the child's measuring time. A traced
// child steps an instrumented rig instead and calibrates the device
// layers on its final state.
func fleetChild(p params, role string) (*childResult, error) {
	file, traced := p.Workload+".json", role == roleTraced
	withTrace := p.Workload == "fleet-unified"
	doc, err := scenarioDoc(file, p.Seed, p.Smoke)
	if err != nil {
		return nil, err
	}
	tracePath := ""
	if withTrace {
		tracePath = filepath.Join(p.Dir, "fleet.tct")
	}
	res := newChildResult()
	res.Workers["step_workers"] = runtime.GOMAXPROCS(0)
	l := newLedger()

	// Set-up: parse + Build (which settles) + trace attach.
	var b *benchRig
	var sc config.Scenario
	reps, err := repeatSetup(p.setupFloor(), func() (time.Duration, error) {
		if b != nil {
			if err := b.close(); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		if sc, err = config.ReadScenarioDir(bytes.NewReader(doc), ""); err != nil {
			return 0, err
		}
		b, err = buildRig(sc, tracePath)
		return time.Since(t), err
	})
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = median(reps)
	l.builds = scale(reps, 1e3)

	prefix := fleetPrefix(p.Smoke)
	serial := sc
	serial.Workers = 1
	sb, err := buildRig(serial, "")
	if err != nil {
		return nil, err
	}
	var serialWall time.Duration
	var serialDigest string
	sb.runGenerators(prefix, prefix, time.Time{}, func(wall time.Duration) {
		serialWall, serialDigest = wall, stateDigest(sb.rig.Cluster)
	})
	sb.close()
	res.Digest = serialDigest

	if traced {
		if err := b.close(); err != nil {
			return nil, err
		}
		if b, err = buildInstrumented(sc, tracePath); err != nil {
			return nil, err
		}
	}
	var prefixWall time.Duration
	var dg string
	peakRSS := measureStart()
	parts := b.runGenerators(prefix, 0, time.Now().Add(p.duration()), func(wall time.Duration) {
		prefixWall, dg = wall, stateDigest(b.rig.Cluster)
		res.Metrics["max_rss_mb"] = peakRSS()
	})
	res.check(dg == serialDigest, "%s: state after %v differs between workers=1 (%s) and workers=%d (%s)",
		p.Workload, prefix, serialDigest, b.rig.Cluster.Workers(), dg)
	res.Attempted += b.timer.n
	res.Windows = windowMetrics(windowed(parts, windowSize))

	if err := b.close(); err != nil {
		return nil, err
	}
	if withTrace {
		size, samples, err := checkTrace(tracePath, len(b.rig.Cluster.Nodes))
		res.check(err == nil, "%s: trace: %v", p.Workload, err)
		l.addTrace(size, samples)
	}
	if traced {
		l.addRun(b)
		if err := l.calibrateRig(b, calibBudget(p.Smoke)); err != nil {
			res.check(false, "%s: %v", p.Workload, err)
		}
		res.Layers = l.values()
		res.Layers["cluster.parallel_speedup"] = serialWall.Seconds() / prefixWall.Seconds()
		res.Aggs = l.aggs()
	}
	return res, nil
}

// calibBudget is the time spent calibrating each device method.
func calibBudget(smoke bool) time.Duration {
	if smoke {
		return 2 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// ledgerRigs runs each scenario document as the campaign server would
// run it as a job, first plainly at workers=1 and then instrumented at
// workers=nproc, checks both end in the same state, and folds the
// instrumented run into l. Documents may extend bases in dir. It
// returns the serial and the parallel stepping time.
func ledgerRigs(p params, res *childResult, l *ledger, docs [][]byte, dir string, withTrace bool) (serial, parallel time.Duration, err error) {
	budget := calibBudget(p.Smoke) / time.Duration(len(docs))
	for i, doc := range docs {
		sc, err := config.ReadScenarioDir(bytes.NewReader(doc), dir)
		if err != nil {
			return 0, 0, err
		}
		one := sc
		one.Workers = 1
		plain, err := buildRig(one, "")
		if err != nil {
			return 0, 0, err
		}
		w1, err := plain.runJob()
		if err != nil {
			return 0, 0, err
		}
		want := stateDigest(plain.rig.Cluster)
		plain.close()

		sc.Workers = runtime.GOMAXPROCS(0)
		tracePath := ""
		if withTrace {
			tracePath = filepath.Join(dir, fmt.Sprintf("ledger-%d.tct", i))
		}
		b, err := buildInstrumented(sc, tracePath)
		if err != nil {
			return 0, 0, err
		}
		wn, err := b.runJob()
		if err != nil {
			return 0, 0, err
		}
		got := stateDigest(b.rig.Cluster)
		res.check(got == want, "%s: instrumented run of %q ends in %s, plain run in %s", p.Workload, sc.Name, got, want)
		if err := b.close(); err != nil {
			return 0, 0, err
		}
		if withTrace {
			size, samples, err := checkTrace(tracePath, len(b.rig.Cluster.Nodes))
			res.check(err == nil, "%s: trace of %q: %v", p.Workload, sc.Name, err)
			l.addTrace(size, samples)
		}
		l.addRun(b)
		if err := l.calibrateRig(b, budget); err != nil {
			res.check(false, "%s: %v", p.Workload, err)
		}
		serial += w1
		parallel += wn
	}
	return serial, parallel, nil
}
