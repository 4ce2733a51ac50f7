package circuit

import (
	"fmt"
	"math/rand"

	"repro/internal/quantum"
)

// Simulate executes the circuit on a dense state-vector register and
// returns it; measurement outcomes collapse the state using rng. The
// circuit must be narrow enough for dense simulation (<= 30 qubits) — this
// is the validation path proving the generated adder and QFT circuits
// compute the right functions.
func Simulate(c *Circuit, initial uint64, rng *rand.Rand) (*quantum.State, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > 30 {
		return nil, fmt.Errorf("circuit: %d qubits exceeds dense simulation limit", c.NumQubits())
	}
	s := quantum.NewBasisState(c.NumQubits(), initial)
	for _, in := range c.Instrs() {
		applyInstr(s, in, rng)
	}
	return s, nil
}

func applyInstr(s *quantum.State, in Instr, rng *rand.Rand) {
	q := [3]int{int(in.Qubits[0]), int(in.Qubits[1]), int(in.Qubits[2])}
	switch in.Kind {
	case X:
		s.X(q[0])
	case Z:
		s.Z(q[0])
	case H:
		s.H(q[0])
	case S:
		s.S(q[0])
	case T:
		s.T(q[0])
	case Tdg:
		s.Tdg(q[0])
	case CNOT:
		s.CNOT(q[0], q[1])
	case CZ:
		s.CZ(q[0], q[1])
	case CPhase:
		s.CPhase(q[0], q[1], in.Angle)
	case Toffoli:
		s.Toffoli(q[0], q[1], q[2])
	case Measure:
		s.Measure(q[0], rng)
	default:
		panic(fmt.Sprintf("circuit: unhandled kind %v", in.Kind))
	}
}
