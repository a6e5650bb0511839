// Package ctlarray implements the paper's thermal control array
// (§3.2.2): the unified representation that maps any actuator's physical
// modes onto a common N-entry array whose fill encodes the user's
// control policy Pp.
//
// Physical modes are identified by integers 0..M-1 in ascending order of
// temperature-control effectiveness (for a fan, ascending duty; for
// DVFS, descending frequency). The array holds N mode values in
// non-descending effectiveness, duplicates allowed. Given the policy
// parameter Pp ∈ [Pmin, Pmax] (the paper uses [1, 100]), Eq. (1)
// determines the pivot
//
//	np = ⌊(Pp − Pmin)(N − 1)/(Pmax − Pmin)⌋ + 1,
//
// cells [np, N] (1-based) are filled with the most effective mode M−1,
// and cells [1, np−1] with a subset of the remaining modes extracted
// evenly from the full set. A small Pp yields a small np, so most of the
// array holds the most effective mode and a small index increment
// produces a large cooling increment — an aggressive, temperature-
// oriented policy. A large Pp spreads the physical modes across the
// array — a conservative, cost-oriented policy.
package ctlarray

import "fmt"

// Policy bounds from the paper.
const (
	PpMin = 1
	PpMax = 100
)

// Array is one filled thermal control array.
type Array struct {
	cells []int
}

// Fill computes the array cells for n cells over m physical modes at
// policy pp. It is exported separately from New for direct use in tests
// and ablations.
func Fill(n, m, pp int) ([]int, error) {
	if n < 2 {
		return nil, fmt.Errorf("ctlarray: N=%d must be >= 2", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("ctlarray: M=%d must be >= 1", m)
	}
	if pp < PpMin || pp > PpMax {
		return nil, fmt.Errorf("ctlarray: Pp=%d outside [%d, %d]", pp, PpMin, PpMax)
	}
	// Eq. (1).
	np := (pp-PpMin)*(n-1)/(PpMax-PpMin) + 1

	cells := make([]int, n)
	// Cells [np, N] (1-based) hold the most effective mode.
	for i := np - 1; i < n; i++ {
		cells[i] = m - 1
	}
	// Cells [1, np-1] hold an even extraction of the remaining modes
	// 0..M-2, in non-descending order.
	k := np - 1 // number of leading cells
	for i := 0; i < k; i++ {
		if m == 1 {
			cells[i] = 0
			continue
		}
		// Spread i = 0..k-1 over modes 0..M-2 evenly; the first cell
		// always stores the least effective mode g1 as the paper
		// requires.
		cells[i] = i * (m - 1) / k
	}
	return cells, nil
}

// New returns a filled array.
func New(nCells, nModes, pp int) (*Array, error) {
	cells, err := Fill(nCells, nModes, pp)
	if err != nil {
		return nil, err
	}
	return &Array{cells: cells}, nil
}

// Len returns N, the number of cells.
func (a *Array) Len() int { return len(a.cells) }

// Mode returns the physical mode stored at cell index i (0-based),
// clamping i into [0, N-1] — the controller's index arithmetic may
// overshoot at the range ends.
func (a *Array) Mode(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= len(a.cells) {
		i = len(a.cells) - 1
	}
	return a.cells[i]
}

// Clamp limits a candidate cell index to the valid range.
func (a *Array) Clamp(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(a.cells) {
		return len(a.cells) - 1
	}
	return i
}
