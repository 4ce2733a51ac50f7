// Package circuit defines the logical instruction set of the CQLA study and
// the circuit intermediate representation shared by the generators, the
// schedulers, the cache simulator and the functional validator.
//
// An instruction is a logical gate on logical qubits — the paper's
// "assembly language" input to its simulator. Costs are expressed in
// two-qubit-gate slots: single- and two-qubit transversal gates take one
// slot (one logical gate followed by one error-correction round); a
// fault-tolerant Toffoli takes fifteen (Section 5.1 of the paper).
package circuit

import (
	"fmt"
	"math"
	"slices"
)

// Kind enumerates logical gate kinds. It is one byte, so an Instr packs
// into 24.
type Kind uint8

const (
	// X is the logical bit-flip.
	X Kind = iota
	// Z is the logical phase-flip.
	Z
	// H is the logical Hadamard.
	H
	// S is the logical phase gate.
	S
	// T is the logical π/8 gate.
	T
	// Tdg is the inverse of T.
	Tdg
	// CNOT is the logical controlled-NOT (qubit 0 controls qubit 1).
	CNOT
	// CZ is the logical controlled-Z.
	CZ
	// CPhase is a controlled phase rotation by Angle (used by the QFT).
	CPhase
	// Toffoli is the doubly-controlled NOT (qubits 0,1 control qubit 2).
	Toffoli
	// Measure is a computational-basis readout.
	Measure

	numKinds
)

var kindInfo = [numKinds]struct {
	name   string
	arity  int
	slots  int
	twoQEq int // equivalent number of physical-level two-qubit gate rounds
}{
	X:       {"x", 1, 1, 1},
	Z:       {"z", 1, 1, 1},
	H:       {"h", 1, 1, 1},
	S:       {"s", 1, 1, 1},
	T:       {"t", 1, 1, 1},
	Tdg:     {"tdg", 1, 1, 1},
	CNOT:    {"cnot", 2, 1, 1},
	CZ:      {"cz", 2, 1, 1},
	CPhase:  {"cphase", 2, 1, 1},
	Toffoli: {"toffoli", 3, ToffoliSlots, ToffoliSlots},
	Measure: {"measure", 1, 1, 1},
}

// ToffoliSlots is the cost of a fault-tolerant Toffoli in two-qubit-gate
// slots: "the time to perform a single fault-tolerant toffoli is equal to
// the time for fifteen two qubit gates, each of which is followed by an
// error-correction step".
const ToffoliSlots = 15

// String returns the lower-case mnemonic of the kind.
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("circuit.Kind(%d)", int(k))
	}
	return kindInfo[k].name
}

// Arity returns the number of qubit operands the kind takes.
func (k Kind) Arity() int { return kindInfo[k].arity }

// Slots returns the kind's duration in two-qubit-gate slots.
func (k Kind) Slots() int { return kindInfo[k].slots }

// Instr is one logical instruction. Qubits is Arity() logical qubit
// indices; Angle is used only by CPhase. The layout is 24 bytes: a one-byte
// Kind, three int32 operands (so a qubit index is at most math.MaxInt32)
// and the float64 angle. A QFT(1000)'s 500,500 gates fill 12 MB.
type Instr struct {
	Kind   Kind
	Qubits [3]int32
	Angle  float64
}

// NewInstr builds an instruction, validating arity, operand range (0 to
// math.MaxInt32) and operand distinctness. It does not retain qubits, so
// the variadic argument list of a call stays on the caller's stack.
func NewInstr(k Kind, qubits ...int) Instr {
	if len(qubits) != k.Arity() {
		panic(fmt.Sprintf("circuit: %v takes %d operands, got %d", k, k.Arity(), len(qubits)))
	}
	var in Instr
	in.Kind = k
	for i, q := range qubits {
		if q < 0 {
			panic(fmt.Sprintf("circuit: negative qubit %d", q))
		}
		if q > math.MaxInt32 {
			panic(fmt.Sprintf("circuit: qubit %d exceeds the operand limit %d", q, math.MaxInt32))
		}
		for j := 0; j < i; j++ {
			if qubits[j] == q {
				var ops [3]int
				copy(ops[:], qubits)
				panicDuplicate(k, ops, len(qubits))
			}
		}
		in.Qubits[i] = int32(q)
	}
	return in
}

// panicDuplicate reports repeated operands with the first n of ops, the
// whole operand list. It takes them by value and is never inlined, so
// formatting the message cannot make NewInstr's argument list escape.
//
//go:noinline
func panicDuplicate(k Kind, ops [3]int, n int) {
	panic(fmt.Sprintf("circuit: %v operands must be distinct, got %v", k, ops[:n]))
}

// Operands returns the active qubit operands as a slice.
func (in Instr) Operands() []int32 {
	return in.Qubits[:in.Kind.Arity()]
}

// Slots returns the instruction's duration in two-qubit-gate slots.
func (in Instr) Slots() int { return in.Kind.Slots() }

// String renders the instruction in the text format ("toffoli 0 1 2").
func (in Instr) String() string {
	s := in.Kind.String()
	for _, q := range in.Operands() {
		s += fmt.Sprintf(" %d", q)
	}
	if in.Kind == CPhase {
		s += fmt.Sprintf(" %.17g", in.Angle)
	}
	return s
}

// Circuit is an ordered list of logical instructions over a register of
// logical qubits.
type Circuit struct {
	numQubits int
	instrs    []Instr
}

// New returns an empty circuit over n logical qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{numQubits: n}
}

// NumQubits returns the register width.
func (c *Circuit) NumQubits() int { return c.numQubits }

// Len returns the instruction count.
func (c *Circuit) Len() int { return len(c.instrs) }

// Instr returns the i-th instruction.
func (c *Circuit) Instr(i int) Instr { return c.instrs[i] }

// Instrs returns the instruction list (shared storage; callers must not
// mutate).
func (c *Circuit) Instrs() []Instr { return c.instrs }

// Append adds an instruction, growing the register if an operand exceeds it.
func (c *Circuit) Append(in Instr) {
	for _, q := range in.Operands() {
		if int(q) >= c.numQubits {
			c.numQubits = int(q) + 1
		}
	}
	c.instrs = append(c.instrs, in)
}

// Grow reserves room for n more instructions, so a generator that knows
// its gate count appends without regrowing.
func (c *Circuit) Grow(n int) { c.instrs = slices.Grow(c.instrs, n) }

// AppendAll appends every instruction of other (register widened as needed).
func (c *Circuit) AppendAll(other *Circuit) {
	for _, in := range other.instrs {
		c.Append(in)
	}
}

// Convenience emitters.

// AddX appends a logical X on q.
func (c *Circuit) AddX(q int) { c.Append(NewInstr(X, q)) }

// AddZ appends a logical Z on q.
func (c *Circuit) AddZ(q int) { c.Append(NewInstr(Z, q)) }

// AddH appends a logical H on q.
func (c *Circuit) AddH(q int) { c.Append(NewInstr(H, q)) }

// AddS appends a logical S on q.
func (c *Circuit) AddS(q int) { c.Append(NewInstr(S, q)) }

// AddT appends a logical T on q.
func (c *Circuit) AddT(q int) { c.Append(NewInstr(T, q)) }

// AddTdg appends the inverse π/8 gate on q.
func (c *Circuit) AddTdg(q int) { c.Append(NewInstr(Tdg, q)) }

// AddCNOT appends a CNOT with the given control and target.
func (c *Circuit) AddCNOT(control, target int) { c.Append(NewInstr(CNOT, control, target)) }

// AddCZ appends a CZ between a and b.
func (c *Circuit) AddCZ(a, b int) { c.Append(NewInstr(CZ, a, b)) }

// AddCPhase appends a controlled phase rotation of angle theta.
func (c *Circuit) AddCPhase(control, target int, theta float64) {
	in := NewInstr(CPhase, control, target)
	in.Angle = theta
	c.Append(in)
}

// AddToffoli appends a Toffoli with controls c1, c2 and the given target.
func (c *Circuit) AddToffoli(c1, c2, target int) {
	c.Append(NewInstr(Toffoli, c1, c2, target))
}

// AddMeasure appends a measurement of q.
func (c *Circuit) AddMeasure(q int) { c.Append(NewInstr(Measure, q)) }

// Stats summarizes a circuit's composition and serial cost.
type Stats struct {
	Qubits       int
	Instructions int
	Toffolis     int
	TwoQubit     int
	SingleQubit  int
	Measurements int
	// TotalSlots is the serial execution cost in two-qubit-gate slots.
	TotalSlots int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{Qubits: c.numQubits, Instructions: len(c.instrs)}
	for _, in := range c.instrs {
		s.TotalSlots += in.Slots()
		switch in.Kind {
		case Toffoli:
			s.Toffolis++
		case CNOT, CZ, CPhase:
			s.TwoQubit++
		case Measure:
			s.Measurements++
		default:
			s.SingleQubit++
		}
	}
	return s
}

// Reversed returns the inverse circuit: instructions in reverse order with
// each gate inverted. Panics if the circuit contains measurements.
func (c *Circuit) Reversed() *Circuit {
	r := New(c.numQubits)
	r.Grow(len(c.instrs))
	for i := len(c.instrs) - 1; i >= 0; i-- {
		in := c.instrs[i]
		switch in.Kind {
		case Measure:
			panic("circuit: cannot reverse a measurement")
		case T:
			in.Kind = Tdg
		case Tdg:
			in.Kind = T
		case S:
			// S† = Z·S (diag(1,i) composed with diag(1,-1) is diag(1,-i)).
			r.AddZ(int(in.Qubits[0]))
			r.AddS(int(in.Qubits[0]))
			continue
		case CPhase:
			in.Angle = -in.Angle
		}
		r.Append(in)
	}
	return r
}

// Validate checks operand ranges and arities.
func (c *Circuit) Validate() error {
	for i, in := range c.instrs {
		if in.Kind >= numKinds {
			return fmt.Errorf("circuit: instruction %d has invalid kind %d", i, int(in.Kind))
		}
		for _, q := range in.Operands() {
			if q < 0 || int(q) >= c.numQubits {
				return fmt.Errorf("circuit: instruction %d operand %d out of range [0,%d)", i, q, c.numQubits)
			}
		}
		if in.Kind == CPhase && (math.IsNaN(in.Angle) || math.IsInf(in.Angle, 0)) {
			return fmt.Errorf("circuit: instruction %d has invalid angle", i)
		}
	}
	return nil
}
