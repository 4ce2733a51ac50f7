package gen

import "testing"

// TestGenerateAllocsIndependentOfSize: every generator reserves its gate
// count up front and circuit.NewInstr keeps its operand list on the
// caller's stack, so a generator costs a fixed number of allocations at
// any width: the QFT of 1000 qubits (500,500 gates) as many as the QFT of
// 16.
func TestGenerateAllocsIndependentOfSize(t *testing.T) {
	// 18 for the lookahead adder and 24 for its controlled form in a
	// normal build (their registers, tree and phase circuits, plus the
	// control fan-out); the race detector's instrumentation adds a few.
	bound := 24.0
	if raceEnabled {
		bound += 8
	}
	for _, g := range []struct {
		name string
		gen  func(n int)
	}{
		{"QFT", func(n int) { QFT(n, true) }},
		{"CarryLookahead", func(n int) { CarryLookahead(n) }},
		{"RippleCarry", func(n int) { RippleCarry(n) }},
		{"ControlledCarryLookahead", func(n int) { ControlledCarryLookahead(n) }},
	} {
		for _, n := range []int{16, 256, 1000} {
			if got := testing.AllocsPerRun(5, func() { g.gen(n) }); got > bound {
				t.Errorf("%s(%d): %v allocs/op, want at most %v at every size", g.name, n, got, bound)
			}
		}
	}
}
