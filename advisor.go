package thermctl

import (
	"fmt"
	"time"

	"thermctl/internal/node"
)

// RecommendPp searches the policy range for the most cost-efficient
// (largest) Pp whose steady-state die temperature under the given
// workload stays at or below targetC, by running short deterministic
// calibration simulations. It is the operator-facing answer to the
// paper's observation that "an optimal Pp highly depends on application
// characteristics and system thermal properties": instead of guessing,
// measure on the model.
//
// The search assumes steady temperature is non-increasing as the policy
// gets more aggressive (smaller Pp), which holds for fan-dominated
// plants; the simulation budget is ~7 runs of calibration duration.
//
// newGen builds the workload; every calibration run gets a fresh
// generator from it, so each probe sees the same load whatever ran
// before it (a generator is stateful: one shared across probes would
// give each a different stretch of its stream).
//
// It returns the chosen Pp and whether even that policy met the target
// (when false, the returned Pp is PpMin — the plant cannot reach targetC
// with this fan alone).
func RecommendPp(cfg NodeConfig, newGen func() Generator, maxDuty, targetC float64) (pp int, meets bool, err error) {
	steady, err := calibrateSteady(cfg, newGen, maxDuty)
	if err != nil {
		return 0, false, err
	}
	// Binary search the largest Pp with steady(pp) <= targetC.
	lo, hi := PpMin, PpMax // invariant target: lo meets (to verify), hi may not
	tLo, err := steady(lo)
	if err != nil {
		return 0, false, err
	}
	if tLo > targetC {
		return PpMin, false, nil
	}
	tHi, err := steady(hi)
	if err != nil {
		return 0, false, err
	}
	if tHi <= targetC {
		return PpMax, true, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		tMid, err := steady(mid)
		if err != nil {
			return 0, false, err
		}
		if tMid <= targetC {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true, nil
}

// calibrateSteady returns a probe function measuring the steady die
// temperature at one policy value, on a fresh node under a fresh
// generator.
func calibrateSteady(cfg NodeConfig, newGen func() Generator, maxDuty float64) (func(pp int) (float64, error), error) {
	if newGen == nil {
		return nil, fmt.Errorf("thermctl: RecommendPp needs a workload generator")
	}
	const (
		runTime = 6 * time.Minute
		dt      = 250 * time.Millisecond
	)
	return func(pp int) (float64, error) {
		probeCfg := cfg
		probeCfg.Name = fmt.Sprintf("%s-probe-pp%d", cfg.Name, pp)
		n, err := node.New(probeCfg)
		if err != nil {
			return 0, err
		}
		n.Settle(0)
		nc, err := NewDynamicFanControl(n, pp, maxDuty)
		if err != nil {
			return 0, err
		}
		n.SetGenerator(newGen())
		var sum float64
		var count int
		for n.Elapsed() < runTime {
			n.Step(dt)
			nc.OnStep(n.Elapsed())
			if n.Elapsed() > runTime*2/3 {
				sum += n.TrueDieC()
				count++
			}
		}
		return sum / float64(count), nil
	}, nil
}
