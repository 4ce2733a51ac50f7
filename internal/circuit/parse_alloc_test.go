package circuit_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestParseAllocsIndependentOfLength: ParseString allocates the circuit
// and its instruction slice and nothing per line, so the QFT of 32 qubits
// (528 instructions) costs as many allocations as the QFT of 4 (10).
func TestParseAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int) float64 {
		src := circuit.FormatString(gen.QFT(n, false))
		return testing.AllocsPerRun(20, func() {
			if _, err := circuit.ParseString(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(32)
	// Two allocations in a normal build; the race detector's
	// instrumentation may add one.
	if large != small || large > 3 {
		t.Errorf("ParseString allocs/op: %v for QFT(4), %v for QFT(32); want one small constant", small, large)
	}
}
