package experiment

import (
	"fmt"
	"strings"
)

// Table1Cell is one (daemon, max-duty) configuration's measurements —
// one column of the paper's Table 1.
type Table1Cell struct {
	Daemon      string
	MaxDuty     float64
	FreqChanges uint64  // paper: 101/122/139 (CPUSPEED) vs 2/2/3 (tDVFS)
	ExecS       float64 // paper: 219/222/223 vs 219/233/234
	AvgPowerW   float64 // paper: 99.78/99.30/100.80 vs 97.93/94.19/92.78
	PDP         float64 // power-delay product, W·s
}

// Table1Result is the full table.
type Table1Result struct {
	Cells []Table1Cell
}

// Table1 runs BT on four nodes for every combination of frequency
// daemon {CPUSPEED, tDVFS} and fan capability {75, 50, 25}% maximum
// duty, both coupled with dynamic fan control at Pp=50 as in §4.3.
func Table1(seed uint64) (*Table1Result, error) {
	res := &Table1Result{}
	for _, daemon := range []string{"CPUSPEED", "tDVFS"} {
		for _, cap := range []float64{75, 50, 25} {
			cell, err := table1Run(seed, daemon, cap)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

func table1Run(seed uint64, daemon string, cap float64) (Table1Cell, error) {
	rig, err := build(4, seed, "bt", control("dynamic", dvfsTechnique(daemon), 50, cap))
	if err != nil {
		return Table1Cell{}, err
	}
	c := rig.Cluster
	defer c.Close()
	run := c.RunProgram(*rig.Program, 0)

	avgW := meterAvgW(c)
	return Table1Cell{
		Daemon:      daemon,
		MaxDuty:     cap,
		FreqChanges: totalTransitions(c) / uint64(len(c.Nodes)),
		ExecS:       run.ExecTime.Seconds(),
		AvgPowerW:   avgW,
		PDP:         avgW * run.ExecTime.Seconds(),
	}, nil
}

// Cell returns the cell for (daemon, cap), or nil.
func (r *Table1Result) Cell(daemon string, cap float64) *Table1Cell {
	for i := range r.Cells {
		if r.Cells[i].Daemon == daemon && r.Cells[i].MaxDuty == cap {
			return &r.Cells[i]
		}
	}
	return nil
}

// String prints the table in the paper's layout.
func (r *Table1Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: BT under CPUSPEED vs tDVFS (dynamic fan, Pp=50)\n")
	fmt.Fprintf(&sb, "  %-22s", "Max allowed PWM duty")
	for _, daemon := range []string{"CPUSPEED", "tDVFS"} {
		for _, cap := range []float64{75, 50, 25} {
			_ = daemon
			fmt.Fprintf(&sb, " %9.0f%%", cap)
		}
	}
	fmt.Fprintf(&sb, "\n  %-22s", "")
	fmt.Fprintf(&sb, " %s %s\n", centered("CPUSPEED", 32), centered("tDVFS", 32))
	row := func(name string, get func(*Table1Cell) string) {
		fmt.Fprintf(&sb, "  %-22s", name)
		for _, daemon := range []string{"CPUSPEED", "tDVFS"} {
			for _, cap := range []float64{75, 50, 25} {
				cell := r.Cell(daemon, cap)
				fmt.Fprintf(&sb, " %10s", get(cell))
			}
		}
		fmt.Fprintf(&sb, "\n")
	}
	row("# freq changes", func(c *Table1Cell) string { return fmt.Sprintf("%d", c.FreqChanges) })
	row("Execution Time (s)", func(c *Table1Cell) string { return fmt.Sprintf("%.0f", c.ExecS) })
	row("Ave Power (Watt)", func(c *Table1Cell) string { return fmt.Sprintf("%.2f", c.AvgPowerW) })
	row("Power-Delay (W*s)", func(c *Table1Cell) string { return fmt.Sprintf("%.0f", c.PDP) })
	fmt.Fprintf(&sb, "  (paper: changes 101/122/139 vs 2/2/3; time 219/222/223 vs 219/233/234;\n")
	fmt.Fprintf(&sb, "   power 99.78/99.30/100.80 vs 97.93/94.19/92.78; tDVFS wins PDP)\n")
	return sb.String()
}

func centered(s string, w int) string {
	if len(s) >= w {
		return s
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", w-len(s)-left)
}
