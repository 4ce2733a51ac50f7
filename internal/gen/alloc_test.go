package gen

import "testing"

// TestGenerateAllocsIndependentOfSize: every generator reserves its gate
// count up front and circuit.NewInstr keeps its operand list on the
// caller's stack, so a generator costs a fixed number of allocations at
// any width: the QFT of 256 qubits (33,280 gates) as many as the QFT of 16.
func TestGenerateAllocsIndependentOfSize(t *testing.T) {
	// 18 for the lookahead adder in a normal build (its registers, tree
	// and phase circuits); the race detector's instrumentation may add a
	// few.
	const bound = 24
	for _, g := range []struct {
		name string
		gen  func(n int)
	}{
		{"QFT", func(n int) { QFT(n, true) }},
		{"CarryLookahead", func(n int) { CarryLookahead(n) }},
		{"RippleCarry", func(n int) { RippleCarry(n) }},
	} {
		for _, n := range []int{16, 256} {
			if got := testing.AllocsPerRun(10, func() { g.gen(n) }); got > bound {
				t.Errorf("%s(%d): %v allocs/op, want at most %d at every size", g.name, n, got, bound)
			}
		}
	}
}
