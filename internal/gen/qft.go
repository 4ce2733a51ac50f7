package gen

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// QFT generates the quantum Fourier transform on n qubits: the
// communication-heavy, computation-light half of Shor's algorithm (Section
// 6 of the paper — it requires all-to-all personalized communication but
// uses only one- and two-qubit gates).
//
// With bitReversal true the output bit order matches the standard DFT
// convention (three-CNOT swaps are appended); without it the output is bit
// reversed, which is how the QFT is usually composed inside larger
// algorithms.
func QFT(n int, bitReversal bool) *circuit.Circuit {
	if n < 1 {
		panic(fmt.Sprintf("gen: QFT width %d < 1", n))
	}
	c := circuit.New(n)
	c.Grow(n + QFTGateCount(n) + 3*(n/2))
	for i := n - 1; i >= 0; i-- {
		c.AddH(i)
		for j := i - 1; j >= 0; j-- {
			// π/2^(i-j); Ldexp is exact, so this is bit-identical to
			// math.Pi/math.Pow(2, float64(i-j)) at a fraction of the cost.
			c.AddCPhase(j, i, math.Pi/math.Ldexp(1, i-j))
		}
	}
	if bitReversal {
		for i := 0; i < n/2; i++ {
			appendSwap(c, i, n-1-i)
		}
	}
	return c
}

// InverseQFT generates the inverse transform (the piece that actually
// appears at the end of Shor's period finding).
func InverseQFT(n int, bitReversal bool) *circuit.Circuit {
	return QFT(n, bitReversal).Reversed()
}

func appendSwap(c *circuit.Circuit, a, b int) {
	c.AddCNOT(a, b)
	c.AddCNOT(b, a)
	c.AddCNOT(a, b)
}

// QFTGateCount returns the two-qubit gate count of an n-qubit QFT without
// bit reversal: n(n-1)/2 controlled rotations.
func QFTGateCount(n int) int {
	return n * (n - 1) / 2
}
