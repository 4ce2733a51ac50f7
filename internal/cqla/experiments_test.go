package cqla

import (
	"math"
	"slices"
	"testing"
)

// TestAxesHavePaperBudgets checks the paper's axis values: every size
// axis is ascending, and every adder size a sweep prices on a paper block
// budget (Tables 4 and 5, Figures 6a and 7) has one.
func TestAxesHavePaperBudgets(t *testing.T) {
	budgets := PaperBlockCounts()
	for name, axis := range map[string][]int{
		"PaperInputSizes":  PaperInputSizes(),
		"Table5Sizes":      Table5Sizes(),
		"Fig6aBlockCounts": Fig6aBlockCounts(),
		"Fig6bBlockCounts": Fig6bBlockCounts(),
		"Fig7Sizes":        Fig7Sizes(),
		"Fig8bSizes":       Fig8bSizes(),
	} {
		if len(axis) == 0 || !slices.IsSorted(axis) || len(slices.Compact(slices.Clone(axis))) != len(axis) {
			t.Errorf("%s = %v, want a non-empty, strictly ascending axis", name, axis)
		}
	}
	for _, sizes := range [][]int{PaperInputSizes(), Table5Sizes(), Fig7Sizes()} {
		for _, n := range sizes {
			if b, ok := budgets[n]; !ok || b[0] >= b[1] {
				t.Errorf("size %d: paper budget %v, want a lo < hi pair", n, b)
			}
		}
	}
}

// TestModExpCommunicationScalesWithPerimeter checks Figure 8(a)'s model:
// operand traffic crosses the compute-region perimeter, so quadrupling
// the blocks from 9 to 36 doubles the channels and halves communication.
func TestModExpCommunicationScalesWithPerimeter(t *testing.T) {
	adder := AdderKernel(64)
	small, large := bsMachine(9).ModExpTimes(64, adder), bsMachine(36).ModExpTimes(64, adder)
	if small.ProblemSize != 64 || large.ProblemSize != 64 {
		t.Errorf("problem sizes %d, %d, want 64", small.ProblemSize, large.ProblemSize)
	}
	if r := float64(small.Communication) / float64(large.Communication); math.Abs(r-2) > 1e-6 {
		t.Errorf("communication ratio 9 vs 36 blocks = %v, want 2", r)
	}
	if small.Communication >= small.Computation {
		t.Error("modular exponentiation should be computation dominated")
	}
}

// TestQFTCommunicationTracksComputation checks Figure 8(b)'s model: both
// times are linear in the gate count, so their ratio is the same at every
// size and sits below one.
func TestQFTCommunicationTracksComputation(t *testing.T) {
	m := bsMachine(36)
	first := m.QFTTimes(Fig8bSizes()[0])
	want := float64(first.Communication) / float64(first.Computation)
	if want >= 1 || want < 0.4 {
		t.Errorf("QFT communication/computation = %.2f, want within [0.4, 1)", want)
	}
	for _, n := range Fig8bSizes() {
		at := m.QFTTimes(n)
		if at.ProblemSize != n {
			t.Errorf("n=%d: problem size %d", n, at.ProblemSize)
		}
		if r := float64(at.Communication) / float64(at.Computation); math.Abs(r-want) > 1e-9 {
			t.Errorf("n=%d: ratio %v, want %v at every size", n, r, want)
		}
	}
}
