package ctlarray

import (
	"testing"
	"testing/quick"
)

func TestFillValidation(t *testing.T) {
	if _, err := Fill(1, 5, 50); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := Fill(10, 0, 50); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Fill(10, 5, 0); err == nil {
		t.Error("Pp=0 accepted")
	}
	if _, err := Fill(10, 5, 101); err == nil {
		t.Error("Pp=101 accepted")
	}
}

func TestEq1Pivot(t *testing.T) {
	// Pp=Pmin → np=1: the whole array is the most effective mode.
	cells, err := Fill(10, 5, PpMin)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cells {
		if v != 4 {
			t.Errorf("Pp=1: cell %d = %d, want 4", i, v)
		}
	}
	// Pp=Pmax → np=N: only the last cell is forced to the max mode and
	// the leading cells spread the full mode set.
	cells, err = Fill(10, 5, PpMax)
	if err != nil {
		t.Fatal(err)
	}
	if cells[9] != 4 {
		t.Errorf("Pp=100: last cell = %d, want 4", cells[9])
	}
	if cells[0] != 0 {
		t.Errorf("Pp=100: first cell = %d, want 0 (least effective mode g1)", cells[0])
	}
}

func TestNonDescendingAndBounded(t *testing.T) {
	if err := quick.Check(func(nRaw, mRaw, ppRaw uint8) bool {
		n := 2 + int(nRaw)%40
		m := 1 + int(mRaw)%20
		pp := 1 + int(ppRaw)%100
		cells, err := Fill(n, m, pp)
		if err != nil {
			return false
		}
		prev := -1
		for _, v := range cells {
			if v < 0 || v >= m {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		return cells[len(cells)-1] == m-1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSmallerPpIsMoreAggressive(t *testing.T) {
	// At every cell index, a smaller Pp must select an equal-or-more
	// effective mode.
	if err := quick.Check(func(aRaw, bRaw uint8) bool {
		pa := 1 + int(aRaw)%100
		pb := 1 + int(bRaw)%100
		if pa > pb {
			pa, pb = pb, pa
		}
		ca, _ := Fill(20, 6, pa)
		cb, _ := Fill(20, 6, pb)
		for i := range ca {
			if ca[i] < cb[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestDVFSArraysMatchPaperFigures checks the mode sequences that
// reproduce the frequency jumps visible in the paper's Figures 8 and 10,
// with the Athlon64's 5 P-states as modes (mode 0 = 2.4 GHz ... mode 4 =
// 1.0 GHz) and N=10.
func TestDVFSArraysMatchPaperFigures(t *testing.T) {
	// Pp=50: np=5, leading cells hold the full set 0,1,2,3 — the first
	// scale-down from 2.4 GHz goes one step to 2.2 GHz (Fig. 8, Fig.10 ③).
	cells, _ := Fill(10, 5, 50)
	want := []int{0, 1, 2, 3, 4, 4, 4, 4, 4, 4}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("Pp=50 cells = %v, want %v", cells, want)
		}
	}
	// Pp=25: np=3, two leading cells hold modes 0 and 2 — the first
	// scale-down jumps 2.4→2.0 GHz (Fig. 10 ①), and scaling back up
	// returns directly to 2.4 GHz (Fig. 10 ②).
	cells, _ = Fill(10, 5, 25)
	if cells[0] != 0 || cells[1] != 2 || cells[2] != 4 {
		t.Errorf("Pp=25 cells = %v, want leading 0,2 then 4s", cells)
	}
}

func TestFullSetWhenRatioIsOne(t *testing.T) {
	// N == M and Pp=Pmax: np=N, leading N-1 cells must be exactly the
	// full set of non-max modes ("If the ratio is 1, then the full set
	// is used").
	cells, _ := Fill(5, 5, 100)
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("N=M Pp=100 cells = %v, want %v", cells, want)
		}
	}
}

func TestDuplicatesWhenNExceedsM(t *testing.T) {
	// N > M: duplicates must appear (allowed by the paper), still
	// non-descending.
	cells, _ := Fill(100, 5, 100)
	seen := map[int]int{}
	for _, v := range cells {
		seen[v]++
	}
	for m := 0; m < 5; m++ {
		if seen[m] == 0 {
			t.Errorf("mode %d absent from N=100 array", m)
		}
	}
	if seen[0] < 2 {
		t.Error("expected duplicated modes when N >> M")
	}
}

func TestSingleModeDevice(t *testing.T) {
	// A device with one mode: the array is all zeros and the technique
	// is insensitive to temperature — the paper's extreme case.
	cells, err := Fill(8, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cells {
		if v != 0 {
			t.Errorf("single-mode array cell = %d", v)
		}
	}
}

func TestModeClampsIndex(t *testing.T) {
	a, err := New(10, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode(-3) != a.Mode(0) {
		t.Error("negative index not clamped")
	}
	if a.Mode(99) != a.Mode(9) {
		t.Error("overflow index not clamped")
	}
	if a.Clamp(-1) != 0 || a.Clamp(100) != 9 || a.Clamp(5) != 5 {
		t.Error("Clamp wrong")
	}
}

func TestAccessors(t *testing.T) {
	a, _ := New(10, 5, 25)
	if a.Len() != 10 || a.Mode(a.Len()-1) != 4 {
		t.Errorf("accessors: Len %d, top mode %d; want 10, 4", a.Len(), a.Mode(a.Len()-1))
	}
}

func BenchmarkFill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = Fill(100, 100, 50)
	}
}
