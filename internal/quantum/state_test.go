package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-12

// Norm returns the 2-norm of the state vector; 1 for any valid state.
func (s *State) Norm() float64 {
	sum := 0.0
	for _, a := range s.amp {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// Fidelity returns |⟨ψ|φ⟩|² between two states of equal width.
func (s *State) Fidelity(o *State) float64 {
	if s.n != o.n {
		panic("quantum: fidelity between different register widths")
	}
	var ip complex128
	for i := range s.amp {
		ip += cmplx.Conj(s.amp[i]) * o.amp[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// plus returns the n-qubit register H^n|0...0⟩.
func plus(n int) *State {
	s := NewState(n)
	for q := 0; q < n; q++ {
		s.H(q)
	}
	return s
}

// phase applies diag(1, e^{iθ}) to qubit q.
func phase(s *State, q int, theta float64) {
	s.Apply1Q(q, 1, 0, 0, cmplx.Exp(complex(0, theta)))
}

func TestNewStateIsZeroKet(t *testing.T) {
	s := NewState(3)
	if len(s.amp) != 8 {
		t.Fatalf("%d amplitudes, want 8", len(s.amp))
	}
	if math.Abs(s.Probability(0)-1) > eps {
		t.Errorf("P(|000⟩) = %g", s.Probability(0))
	}
	if math.Abs(s.Norm()-1) > eps {
		t.Errorf("norm = %g", s.Norm())
	}
}

func TestBasisState(t *testing.T) {
	s := NewBasisState(4, 0b1010)
	if p := s.Probability(0b1010); math.Abs(p-1) > eps {
		t.Errorf("P = %g", p)
	}
}

func TestXFlipsBit(t *testing.T) {
	s := NewState(2)
	s.X(1)
	if p := s.Probability(0b10); math.Abs(p-1) > eps {
		t.Errorf("X(1) gave P(|10⟩) = %g", p)
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.H(0)
	if math.Abs(s.Probability(0)-0.5) > eps || math.Abs(s.Probability(1)-0.5) > eps {
		t.Errorf("H gave probs %g, %g", s.Probability(0), s.Probability(1))
	}
	s.H(0) // H is self-inverse
	if math.Abs(s.Probability(0)-1) > eps {
		t.Errorf("HH != I: P(0) = %g", s.Probability(0))
	}
}

func TestCNOTTruthTable(t *testing.T) {
	for in := uint64(0); in < 4; in++ {
		s := NewBasisState(2, in)
		s.CNOT(0, 1)
		want := in
		if in&1 != 0 {
			want ^= 2
		}
		if p := s.Probability(want); math.Abs(p-1) > eps {
			t.Errorf("CNOT |%02b⟩: P(|%02b⟩) = %g", in, want, p)
		}
	}
}

func TestToffoliTruthTable(t *testing.T) {
	for in := uint64(0); in < 8; in++ {
		s := NewBasisState(3, in)
		s.Toffoli(0, 1, 2)
		want := in
		if in&1 != 0 && in&2 != 0 {
			want ^= 4
		}
		if p := s.Probability(want); math.Abs(p-1) > eps {
			t.Errorf("Toffoli |%03b⟩: P(|%03b⟩) = %g", in, want, p)
		}
	}
}

// The standard 7-gate-depth decomposition of Toffoli into H, T, Tdg and CNOT
// must agree with the primitive Toffoli on every basis state; this is the
// decomposition the fault-tolerant cost model (15 two-qubit-gate times)
// abstracts.
func TestToffoliDecomposition(t *testing.T) {
	decomp := func(s *State, a, b, c int) {
		s.H(c)
		s.CNOT(b, c)
		s.Tdg(c)
		s.CNOT(a, c)
		s.T(c)
		s.CNOT(b, c)
		s.Tdg(c)
		s.CNOT(a, c)
		s.T(b)
		s.T(c)
		s.H(c)
		s.CNOT(a, b)
		s.T(a)
		s.Tdg(b)
		s.CNOT(a, b)
	}
	for in := uint64(0); in < 8; in++ {
		want := NewBasisState(3, in)
		want.Toffoli(0, 1, 2)
		got := NewBasisState(3, in)
		decomp(got, 0, 1, 2)
		if f := want.Fidelity(got); math.Abs(f-1) > 1e-9 {
			t.Errorf("decomposition disagrees on |%03b⟩: fidelity %g", in, f)
		}
	}
}

func TestCZSymmetric(t *testing.T) {
	a, b := plus(2), plus(2)
	a.CZ(0, 1)
	b.CZ(1, 0)
	if f := a.Fidelity(b); math.Abs(f-1) > eps {
		t.Errorf("CZ not symmetric: fidelity %g", f)
	}
}

func TestCPhaseOnlyOn11(t *testing.T) {
	s := NewBasisState(2, 0b11)
	s.CPhase(0, 1, math.Pi/2)
	a := s.Amplitude(0b11)
	if math.Abs(real(a)) > eps || math.Abs(imag(a)-1) > eps {
		t.Errorf("CPhase(π/2)|11⟩ amplitude = %v, want i", a)
	}
	s2 := NewBasisState(2, 0b01)
	s2.CPhase(0, 1, math.Pi/2)
	if p := s2.Probability(0b01); math.Abs(p-1) > eps {
		t.Errorf("CPhase acted on |01⟩")
	}
}

func TestSTRelations(t *testing.T) {
	// T² = S and S² = Z on |+⟩-like states.
	a, b := plus(1), plus(1)
	a.T(0)
	a.T(0)
	b.S(0)
	if f := a.Fidelity(b); math.Abs(f-1) > eps {
		t.Errorf("T² != S: %g", f)
	}
	c, d := plus(1), plus(1)
	c.S(0)
	c.S(0)
	d.Z(0)
	if f := c.Fidelity(d); math.Abs(f-1) > eps {
		t.Errorf("S² != Z: %g", f)
	}
	e, g := plus(1), plus(1)
	e.T(0)
	e.Tdg(0)
	if f := e.Fidelity(g); math.Abs(f-1) > eps {
		t.Errorf("T·Tdg != I: %g", f)
	}
}

func TestBellStateMeasurementCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := NewState(2)
		s.H(0)
		s.CNOT(0, 1)
		m0 := s.Measure(0, rng)
		m1 := s.Measure(1, rng)
		if m0 != m1 {
			t.Fatalf("Bell state gave anti-correlated outcomes %d,%d", m0, m1)
		}
	}
}

func TestMeasureCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewState(1)
	s.H(0)
	m := s.Measure(0, rng)
	if p := s.Probability(uint64(m)); math.Abs(p-1) > eps {
		t.Errorf("post-measurement P(outcome) = %g", p)
	}
	if math.Abs(s.Norm()-1) > eps {
		t.Errorf("post-measurement norm = %g", s.Norm())
	}
}

func TestDominantBasisState(t *testing.T) {
	s := NewBasisState(3, 5)
	v, p := s.DominantBasisState()
	if v != 5 || math.Abs(p-1) > eps {
		t.Errorf("dominant = %d (p=%g)", v, p)
	}
}

// Property: applying a random sequence of unitary gates preserves the norm.
func TestUnitarityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		s := NewState(n)
		for g := 0; g < 30; g++ {
			q := rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				s.H(q)
			case 1:
				s.X(q)
			case 2:
				s.T(q)
			case 3:
				phase(s, q, rng.Float64()*2*math.Pi)
			case 4:
				r := rng.Intn(n)
				if r != q {
					s.CNOT(q, r)
				}
			case 5:
				r := rng.Intn(n)
				if r != q {
					s.CPhase(q, r, rng.Float64()*2*math.Pi)
				}
			}
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: X, Z, H, CNOT, CZ and Toffoli are self-inverse.
func TestSelfInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random-ish initial state, prepared twice.
		s, ref := plus(4), plus(4)
		for q := 0; q < 4; q++ {
			theta := rng.Float64()
			phase(s, q, theta)
			phase(ref, q, theta)
		}
		s.X(0)
		s.Z(1)
		s.H(2)
		s.CNOT(0, 3)
		s.CZ(1, 2)
		s.Toffoli(0, 1, 2)
		// Invert in reverse order (all involutions).
		s.Toffoli(0, 1, 2)
		s.CZ(1, 2)
		s.CNOT(0, 3)
		s.H(2)
		s.Z(1)
		s.X(0)
		return math.Abs(s.Fidelity(ref)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnBadQubit(t *testing.T) {
	cases := []func(){
		func() { NewState(2).H(2) },
		func() { NewState(2).CNOT(0, 0) },
		func() { NewState(3).Toffoli(0, 0, 1) },
		func() { NewState(31) },
		func() { NewBasisState(2, 4) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func BenchmarkCNOT20Qubits(b *testing.B) {
	s := NewState(20)
	for q := 0; q < 20; q++ {
		s.H(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CNOT(i%19, 19)
	}
}
