// Package quantum is a dense state-vector simulator for small quantum
// registers. Its one caller is circuit.Simulate, behind `qcirc sim`: the
// CQLA reproduction uses it as ground truth, executing circuits emitted by
// internal/gen (the Draper carry-lookahead adder, the ripple-carry adder,
// the QFT) to prove they compute the right function before their schedules
// are fed to the architecture model.
//
// The simulator is deliberately simple — a complex128 amplitude per basis
// state, gates applied by direct index arithmetic — because the circuits it
// validates are at most a few dozen qubits.
package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// State is the quantum state of an n-qubit register. Qubit 0 is the least
// significant bit of the basis-state index.
type State struct {
	n   int
	amp []complex128
}

// NewState returns an n-qubit register initialized to |0...0⟩.
func NewState(n int) *State {
	if n < 0 || n > 30 {
		panic(fmt.Sprintf("quantum: qubit count %d outside supported range [0,30]", n))
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s
}

// NewBasisState returns an n-qubit register initialized to the computational
// basis state |value⟩.
func NewBasisState(n int, value uint64) *State {
	s := NewState(n)
	if value >= 1<<uint(n) {
		panic(fmt.Sprintf("quantum: basis value %d does not fit in %d qubits", value, n))
	}
	s.amp[0] = 0
	s.amp[value] = 1
	return s
}

// Amplitude returns the amplitude of basis state |i⟩.
func (s *State) Amplitude(i uint64) complex128 {
	return s.amp[i]
}

// Probability returns |⟨i|ψ⟩|².
func (s *State) Probability(i uint64) float64 {
	return norm2(s.amp[i])
}

// The helpers below spell out complex arithmetic with every real product
// rounded on its own by an explicit float64(…) conversion. The Go spec
// lets arm64, ppc64le, s390x and riscv64 fuse x*y + z into one rounding;
// the conversions forbid that, so the simulator returns on every GOARCH
// the bits amd64 (which never fuses) computes from the plain operators.

// norm2 returns |a|².
func norm2(a complex128) float64 {
	return float64(real(a)*real(a)) + float64(imag(a)*imag(a))
}

// cmul returns a*b, term for term as the compiler expands the operator.
func cmul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("quantum: qubit %d out of range [0,%d)", q, s.n))
	}
}

// Apply1Q applies the 2x2 unitary {{m00,m01},{m10,m11}} to qubit q.
func (s *State) Apply1Q(q int, m00, m01, m10, m11 complex128) {
	s.checkQubit(q)
	bit := uint64(1) << uint(q)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = cmul(m00, a0) + cmul(m01, a1)
		s.amp[j] = cmul(m10, a0) + cmul(m11, a1)
	}
}

// H applies a Hadamard gate to qubit q.
func (s *State) H(q int) {
	r := complex(1/math.Sqrt2, 0)
	s.Apply1Q(q, r, r, r, -r)
}

// X applies a bit-flip (NOT) to qubit q.
func (s *State) X(q int) {
	s.Apply1Q(q, 0, 1, 1, 0)
}

// Z applies a phase-flip to qubit q.
func (s *State) Z(q int) {
	s.Apply1Q(q, 1, 0, 0, -1)
}

// S applies the phase gate diag(1, i).
func (s *State) S(q int) {
	s.Apply1Q(q, 1, 0, 0, complex(0, 1))
}

// T applies the π/8 gate diag(1, e^{iπ/4}), the non-Clifford gate whose
// fault-tolerant implementation dominates Toffoli cost in the paper.
func (s *State) T(q int) {
	s.Apply1Q(q, 1, 0, 0, cmplx.Exp(complex(0, math.Pi/4)))
}

// Tdg applies the inverse of T.
func (s *State) Tdg(q int) {
	s.Apply1Q(q, 1, 0, 0, cmplx.Exp(complex(0, -math.Pi/4)))
}

// CNOT applies a controlled-NOT with the given control and target.
func (s *State) CNOT(control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: CNOT control equals target")
	}
	cbit := uint64(1) << uint(control)
	tbit := uint64(1) << uint(target)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&cbit != 0 && i&tbit == 0 {
			j := i | tbit
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// CZ applies a controlled-Z between qubits a and b (symmetric).
func (s *State) CZ(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: CZ on identical qubits")
	}
	abit := uint64(1) << uint(a)
	bbit := uint64(1) << uint(b)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&abit != 0 && i&bbit != 0 {
			s.amp[i] = -s.amp[i]
		}
	}
}

// CPhase applies a controlled-Phase(θ) between control and target.
func (s *State) CPhase(control, target int, theta float64) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: CPhase on identical qubits")
	}
	cbit := uint64(1) << uint(control)
	tbit := uint64(1) << uint(target)
	ph := cmplx.Exp(complex(0, theta))
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&cbit != 0 && i&tbit != 0 {
			s.amp[i] = cmul(s.amp[i], ph)
		}
	}
}

// Toffoli applies a doubly-controlled NOT (CCX).
func (s *State) Toffoli(c1, c2, target int) {
	s.checkQubit(c1)
	s.checkQubit(c2)
	s.checkQubit(target)
	if c1 == c2 || c1 == target || c2 == target {
		panic("quantum: Toffoli qubits must be distinct")
	}
	b1 := uint64(1) << uint(c1)
	b2 := uint64(1) << uint(c2)
	tbit := uint64(1) << uint(target)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&b1 != 0 && i&b2 != 0 && i&tbit == 0 {
			j := i | tbit
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// Measure performs a projective measurement of qubit q in the computational
// basis using the supplied random source, collapses the state, and returns
// the observed bit.
func (s *State) Measure(q int, rng *rand.Rand) int {
	s.checkQubit(q)
	bit := uint64(1) << uint(q)
	p1 := 0.0
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&bit != 0 {
			p1 += norm2(s.amp[i])
		}
	}
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	var keepProb float64
	if outcome == 1 {
		keepProb = p1
	} else {
		keepProb = 1 - p1
	}
	if keepProb <= 0 {
		// Numerically impossible branch was drawn; force the other one.
		outcome = 1 - outcome
		keepProb = 1 - keepProb
	}
	norm := complex(1/math.Sqrt(keepProb), 0)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		match := (i&bit != 0) == (outcome == 1)
		if match {
			s.amp[i] = cmul(s.amp[i], norm)
		} else {
			s.amp[i] = 0
		}
	}
	return outcome
}

// DominantBasisState returns the basis index with the largest probability
// and that probability. For classical-reversible circuits (adders) the
// result is deterministic with probability ~1.
func (s *State) DominantBasisState() (uint64, float64) {
	best := uint64(0)
	bestP := 0.0
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		p := s.Probability(i)
		if p > bestP {
			bestP = p
			best = i
		}
	}
	return best, bestP
}
