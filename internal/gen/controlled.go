package gen

import (
	"fmt"

	"repro/internal/circuit"
)

// ControlledCarryLookahead generates the conditioned form of the
// carry-lookahead adder used inside modular exponentiation: Sum = A + B
// when the control qubit is 1, Sum = B's value (i.e. A treated as zero)
// when it is 0 — realized by conditioning only the sum-register writes.
// The carry network runs unconditionally and uncomputes either way, so the
// control adds one Toffoli per sum CNOT but leaves the network's depth
// untouched, which is why the paper can treat controlled and plain
// additions as the same scheduling unit.
//
// The returned Adder's Control field holds the control qubit index.
func ControlledCarryLookahead(n int) *ControlledAdder {
	if n < 1 {
		panic(fmt.Sprintf("gen: adder width %d < 1", n))
	}
	base := CarryLookahead(n)
	control := base.Circuit.NumQubits() // append the control qubit

	// A single control qubit would serialize every conditioned write, so
	// it is fanned out into copies with a CNOT chain (legitimate for
	// conditioning X-basis writes: the copies carry the control's value in
	// the computational basis) and the Toffolis draw controls round-robin.
	copies := n / 8
	if copies < 1 {
		copies = 1
	}
	fan := make([]int, copies)
	for i := range fan {
		fan[i] = control + 1 + i
	}
	c := circuit.New(control + 1 + copies)
	c.Grow(base.Circuit.Len() + 2*copies)
	for _, f := range fan {
		c.AddCNOT(control, f)
	}

	// Rebuild with conditioned sum writes: every CNOT targeting the sum
	// register becomes a Toffoli conjoined with a control copy; everything
	// else is unchanged.
	inSum := make([]bool, control)
	for _, q := range base.Sum {
		inSum[q] = true
	}
	next := 0
	for _, in := range base.Circuit.Instrs() {
		if ctl, tgt := int(in.Qubits[0]), int(in.Qubits[1]); in.Kind == circuit.CNOT && inSum[tgt] {
			c.AddToffoli(fan[next%copies], ctl, tgt)
			next++
			continue
		}
		c.Append(in)
	}
	for i := copies - 1; i >= 0; i-- {
		c.AddCNOT(control, fan[i])
	}

	ancilla := append(make([]int, 0, len(base.Ancilla)+copies), base.Ancilla...)
	ancilla = append(ancilla, fan...)
	return &ControlledAdder{
		Adder: Adder{
			Name:    "controlled-carry-lookahead",
			N:       n,
			A:       base.A,
			B:       base.B,
			Sum:     base.Sum,
			Ancilla: ancilla,
			Circuit: c,
		},
		Control: control,
	}
}

// ControlledAdder is an Adder with a control qubit gating the sum writes.
type ControlledAdder struct {
	Adder
	Control int
}
