package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/core"
	"thermctl/internal/core/window"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

// AblationRow is one window configuration's outcome.
type AblationRow struct {
	L1Size, L2Size int
	// SteadyC is the temperature cpu-burn settles at.
	SteadyC float64
	// Moves is the controller's mode-change count — actuator wear.
	Moves uint64
	// JitterMoves is the mode-change count during a pure-jitter phase —
	// the false-reaction metric the 4-entry window minimizes.
	JitterMoves uint64
}

// AblationResult sweeps the two-level window's dimensions, quantifying
// the paper's §3.2.1 design discussion: too small a level-one window
// chases jitter; too large reacts late; the level-two FIFO catches what
// level one cannot.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation runs cpu-burn (warm-up + steady) followed by a jitter phase
// under each window configuration.
func Ablation(seed uint64) (*AblationResult, error) {
	cfgs := []window.Config{
		{L1Size: 2, L2Size: 5},
		{L1Size: 4, L2Size: 5}, // the paper's choice
		{L1Size: 8, L2Size: 5},
		{L1Size: 4, L2Size: 2},
		{L1Size: 4, L2Size: 10},
	}
	rows, err := sweep(len(cfgs), func(i int) (AblationRow, error) { return ablationRun(seed, cfgs[i]) })
	if err != nil {
		return nil, err
	}
	return &AblationResult{Rows: rows}, nil
}

func ablationRun(seed uint64, win window.Config) (AblationRow, error) {
	n, err := node.New(node.DefaultConfig(
		fmt.Sprintf("ablate-%d-%d", win.L1Size, win.L2Size), seed))
	if err != nil {
		return AblationRow{}, err
	}
	n.Settle(0)
	// Wired by hand, not through ControlSpec.BuildNode: the window
	// dimensions swept here are a knob no control spec exposes.
	cfg := core.DefaultConfig(50)
	cfg.Window = win
	ctl, err := core.NewController(cfg,
		core.SysfsTemp(n.FS, n.Hwmon.TempInput),
		core.NewFanActuator(core.NewSysfsFanPort(n.FS, n.Hwmon), 100))
	if err != nil {
		return AblationRow{}, err
	}

	dt := 250 * time.Millisecond
	n.SetGenerator(workload.NewCPUBurn(nil))
	for i := 0; i < 1920; i++ { // 8 min: warm-up and settle
		n.Step(dt)
		ctl.Binding().OnStep(n.Elapsed())
	}
	row := AblationRow{
		L1Size:  win.L1Size,
		L2Size:  win.L2Size,
		SteadyC: n.TrueDieC(),
	}
	movesAtJitter := ctl.Moves(0)
	n.SetGenerator(workload.Jitter{Low: 0.2, High: 0.9, Period: time.Second})
	for i := 0; i < 1440; i++ { // 6 min of jitter
		n.Step(dt)
		ctl.Binding().OnStep(n.Elapsed())
	}
	row.Moves = ctl.Moves(0)
	row.JitterMoves = ctl.Moves(0) - movesAtJitter
	return row, nil
}

// Row returns the row for the given window sizes, or nil.
//
//thermlint:allow deadcode -- oracle: the root benchmarks and experiment tests read results through it
func (r *AblationResult) Row(l1, l2 int) *AblationRow {
	for i := range r.Rows {
		if r.Rows[i].L1Size == l1 && r.Rows[i].L2Size == l2 {
			return &r.Rows[i]
		}
	}
	return nil
}

// String prints the sweep.
func (r *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: two-level window dimensions (cpu-burn then jitter, Pp=50)\n")
	fmt.Fprintf(&sb, "  %-5s %-5s %-12s %-13s %-13s\n",
		"L1", "L2", "steady degC", "total moves", "jitter moves")
	for _, row := range r.Rows {
		marker := ""
		if row.L1Size == 4 && row.L2Size == 5 {
			marker = "  <- paper"
		}
		fmt.Fprintf(&sb, "  %-5d %-5d %-12.2f %-13d %-13d%s\n",
			row.L1Size, row.L2Size, row.SteadyC, row.Moves, row.JitterMoves, marker)
	}
	fmt.Fprintf(&sb, "  (a smaller L1 window chases jitter; a larger one reacts late)\n")
	return sb.String()
}
