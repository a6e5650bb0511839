package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/workload"
)

// The sleep-states study exercises the third technique family the
// paper's §3.2.2 names for the thermal control array: ACPI processor
// sleep states. The same decision law that walks the fan's duty array
// walks the C-state table — cstates.Actuator is just another actuator
// column — and the study measures where that knob actually helps: a
// C-state gates power only during the idle fraction of time, so it pays
// on bursty, communication-heavy load and does nothing under cpu-burn.
//
// The runs are wired through the declarative scenario layer
// (config.Scenario), the same path clustersim and thermctld use, so
// this doubles as the third consumer of that spec.

// SleepStatesRow is one (workload, sleep-control) cell of the study.
type SleepStatesRow struct {
	// Workload names the generator profile.
	Workload string
	// Sleep reports whether the C-state array was enabled.
	Sleep bool
	// AvgW is the average wall power per node over the run.
	AvgW float64
	// MaxDieC is the hottest physical die temperature observed.
	MaxDieC float64
	// FinalMode is the deepest-allowed C-state at the end of the run
	// (0 = C0); Moves counts mode transitions the array commanded.
	FinalMode int
	Moves     uint64
}

// SleepStatesResult is the full study: both workloads, with and
// without the sleep-state array, under the same dynamic fan control.
type SleepStatesResult struct {
	Seed uint64
	Rows []SleepStatesRow
}

// sleepStatesRun executes one cell: a 2-node generator-driven cluster
// under dynamic fan control, with the C-state array on or off.
func sleepStatesRun(seed uint64, name string, gen workload.Generator, sleep bool) (SleepStatesRow, error) {
	const runFor = 150 * time.Second
	// Span the control array across the band these generator profiles
	// actually occupy (the platform default 38..82 is sized for NPB
	// programs); identical tuning on and off keeps the cells comparable.
	tune := config.Default()
	tune.TminC, tune.TmaxC = 40, 52
	s := config.Scenario{
		Name:    "sleepstates-" + name,
		Nodes:   2,
		Seed:    seed,
		Workers: Workers,
		Control: config.ControlSpec{Fan: "dynamic", DVFS: "none", Sleep: "none", Tuning: tune},
	}
	if sleep {
		s.Control.Sleep = "ctlarray"
	}
	rig, err := s.Build()
	if err != nil {
		return SleepStatesRow{}, err
	}
	c := rig.Cluster
	defer c.Close()

	row := SleepStatesRow{Workload: name, Sleep: sleep}
	tr := &chaosTracker{c: c}
	c.AddController(tr)
	c.RunGenerator(gen, runFor)

	row.AvgW = meterAvgW(c)
	row.MaxDieC = tr.maxDie
	if sleep {
		// The sleep actuator is the second binding on the dynamic fan
		// controller (slot 1); report node 0's array position.
		ctl := rig.Nodes[0].Fan
		row.FinalMode = ctl.Policy().Mode(1)
		row.Moves = ctl.Binding().Moves(1)
	}
	return row, nil
}

// burstyProfile is the communication-heavy load: full-power bursts
// alternating with near-idle halves, warm enough to climb the array.
func burstyProfile() workload.Generator {
	return workload.Jitter{Low: 0.1, High: 1.0, Period: 4 * time.Second}
}

// SleepStates runs the study: a bursty communication-heavy profile and
// a sustained cpu-burn, each with and without the C-state array.
func SleepStates(seed uint64) (*SleepStatesResult, error) {
	res := &SleepStatesResult{Seed: seed}
	cells := []struct {
		name  string
		gen   workload.Generator
		sleep bool
	}{
		{"bursty", burstyProfile(), false},
		{"bursty", burstyProfile(), true},
		{"cpuburn", workload.Constant(0.95), false},
		{"cpuburn", workload.Constant(0.95), true},
	}
	for _, cell := range cells {
		row, err := sleepStatesRun(seed, cell.name, cell.gen, cell.sleep)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// row returns the cell for (workload, sleep), or a zero row.
func (r *SleepStatesResult) row(workload string, sleep bool) SleepStatesRow {
	for _, row := range r.Rows {
		if row.Workload == workload && row.Sleep == sleep {
			return row
		}
	}
	return SleepStatesRow{}
}

// SavingsW returns the per-node power saved by the sleep-state array on
// the given workload (positive = the array helped).
func (r *SleepStatesResult) SavingsW(workload string) float64 {
	return r.row(workload, false).AvgW - r.row(workload, true).AvgW
}

// CheckIdleAsymmetry asserts the study's qualitative claim: the
// C-state knob saves real power on the bursty profile and markedly
// less under cpu-burn, while the array engaged (left C0) on the bursty
// run and never overheated either way.
func (r *SleepStatesResult) CheckIdleAsymmetry() error {
	burstSave, burnSave := r.SavingsW("bursty"), r.SavingsW("cpuburn")
	if burstSave <= 0 {
		return fmt.Errorf("sleepstates: no savings on bursty load (%.2f W)", burstSave)
	}
	if burnSave >= burstSave {
		return fmt.Errorf("sleepstates: cpu-burn saved %.2f W >= bursty %.2f W; the idle asymmetry is gone",
			burnSave, burstSave)
	}
	if r.row("bursty", true).FinalMode == 0 && r.row("bursty", true).Moves == 0 {
		return fmt.Errorf("sleepstates: array never engaged on the bursty run")
	}
	return nil
}

// String renders the study table.
func (r *SleepStatesResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sleep-state array study (seed %d): C-states through the thermal control array\n", r.Seed)
	fmt.Fprintf(&sb, "%-10s %-10s %10s %10s %8s %7s\n",
		"workload", "sleep", "avg W", "max die C", "C-state", "moves")
	for _, row := range r.Rows {
		mode := "-"
		sleep := "off"
		if row.Sleep {
			mode = fmt.Sprintf("C%d", row.FinalMode)
			sleep = "ctlarray"
		}
		fmt.Fprintf(&sb, "%-10s %-10s %10.2f %10.2f %8s %7d\n",
			row.Workload, sleep, row.AvgW, row.MaxDieC, mode, row.Moves)
	}
	fmt.Fprintf(&sb, "savings: bursty %.2f W/node, cpu-burn %.2f W/node\n",
		r.SavingsW("bursty"), r.SavingsW("cpuburn"))
	return sb.String()
}
