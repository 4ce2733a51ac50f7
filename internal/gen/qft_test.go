package gen

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
)

// dftAmplitudes returns the exact DFT of the basis state |x⟩ over n qubits.
func dftAmplitudes(n int, x uint64) []complex128 {
	size := uint64(1) << uint(n)
	amps := make([]complex128, size)
	norm := 1 / math.Sqrt(float64(size))
	for k := uint64(0); k < size; k++ {
		theta := 2 * math.Pi * float64(x) * float64(k) / float64(size)
		amps[k] = complex(norm, 0) * cmplx.Exp(complex(0, theta))
	}
	return amps
}

func TestQFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5} {
		c := QFT(n, true)
		for trial := 0; trial < 4; trial++ {
			x := rng.Uint64() % (1 << uint(n))
			s, err := circuit.Simulate(c, x, rng)
			if err != nil {
				t.Fatal(err)
			}
			want := dftAmplitudes(n, x)
			for k, w := range want {
				got := s.Amplitude(uint64(k))
				if cmplx.Abs(got-w) > 1e-9 {
					t.Fatalf("QFT(%d)|%d⟩: amplitude[%d] = %v, want %v", n, x, k, got, w)
					break
				}
			}
		}
	}
}

func TestInverseQFTUndoesQFT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 4, 6} {
		full := circuit.New(n)
		full.AppendAll(QFT(n, true))
		full.AppendAll(InverseQFT(n, true))
		x := rng.Uint64() % (1 << uint(n))
		s, err := circuit.Simulate(full, x, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p := s.Probability(x); math.Abs(p-1) > 1e-9 {
			t.Errorf("QFT⁻¹·QFT |%d⟩ on %d qubits: P = %g", x, n, p)
		}
	}
}

func TestQFTWithoutReversalIsBitReversedDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 4
	c := QFT(n, false)
	x := uint64(5)
	s, err := circuit.Simulate(c, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := dftAmplitudes(n, x)
	for k := uint64(0); k < 1<<uint(n); k++ {
		rk := reverseBits(k, n)
		if cmplx.Abs(s.Amplitude(rk)-want[k]) > 1e-9 {
			t.Fatalf("no-reversal QFT: amplitude[%d] (rev %d) mismatch", k, rk)
		}
	}
}

func reverseBits(x uint64, n int) uint64 {
	var r uint64
	for i := 0; i < n; i++ {
		if x>>uint(i)&1 == 1 {
			r |= 1 << uint(n-1-i)
		}
	}
	return r
}

func TestQFTOnSuperposition(t *testing.T) {
	// QFT of the uniform superposition is |0...0⟩.
	rng := rand.New(rand.NewSource(19))
	n := 4
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.AddH(q)
	}
	c.AppendAll(InverseQFT(n, true))
	st, err := circuit.Simulate(c, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Probability(0); math.Abs(p-1) > 1e-9 {
		t.Errorf("QFT⁻¹ of uniform superposition: P(|0⟩) = %g", p)
	}
}

func TestQFTGateCount(t *testing.T) {
	for _, n := range []int{2, 8, 100, 1000} {
		c := QFT(n, false)
		stats := c.Stats()
		if stats.TwoQubit != QFTGateCount(n) {
			t.Errorf("QFT(%d): %d two-qubit gates, want %d", n, stats.TwoQubit, QFTGateCount(n))
		}
		if stats.SingleQubit != n {
			t.Errorf("QFT(%d): %d Hadamards, want %d", n, stats.SingleQubit, n)
		}
		if stats.Toffolis != 0 {
			t.Errorf("QFT(%d): unexpected Toffolis", n)
		}
		// The count QFT reserves up front: three CNOTs per reversal swap.
		if got, want := QFT(n, true).Len(), c.Len()+3*(n/2); got != want {
			t.Errorf("QFT(%d) with bit reversal: %d instructions, want %d", n, got, want)
		}
	}
}

// TestQFTAnglesMatchPow pins the rotation angles bit for bit to the
// math.Pow expression the generator used before it switched to Ldexp,
// for every exponent k = i-j in [1, 1023].
func TestQFTAnglesMatchPow(t *testing.T) {
	const n = 1024
	c := QFT(n, false)
	seen := make([]bool, n)
	for _, in := range c.Instrs() {
		if in.Kind != circuit.CPhase {
			continue
		}
		k := in.Qubits[1] - in.Qubits[0]
		want := math.Pi / math.Pow(2, float64(k))
		if math.Float64bits(in.Angle) != math.Float64bits(want) {
			t.Fatalf("CPhase(%d, %d): angle %b, want π/2^%d = %b", in.Qubits[0], in.Qubits[1], in.Angle, k, want)
		}
		seen[k] = true
	}
	for k := 1; k < n; k++ {
		if !seen[k] {
			t.Errorf("no rotation with k = %d", k)
		}
	}
}

func TestQFTDepthLinear(t *testing.T) {
	// QFT depth is O(n) even though it has O(n²) gates: the structure the
	// paper exploits when it calls QFT "computation light".
	d100 := circuit.BuildDAG(QFT(100, false)).Depth()
	d200 := circuit.BuildDAG(QFT(200, false)).Depth()
	if d200 > 3*d100 {
		t.Errorf("QFT depth growing superlinearly: d(100)=%d d(200)=%d", d100, d200)
	}
}

func TestModExpComposition(t *testing.T) {
	m := NewModExp(1024)
	if m.ExponentBits() != 2048 {
		t.Errorf("exponent bits = %d", m.ExponentBits())
	}
	if m.Multiplications() != 2048 {
		t.Errorf("multiplications = %d", m.Multiplications())
	}
	if m.AdderCalls() != 2048*1024 {
		t.Errorf("adder calls = %d", m.AdderCalls())
	}
	if m.LogicalQubits() != 5*1024+3 {
		t.Errorf("logical qubits = %d", m.LogicalQubits())
	}
	if m.ConcurrentAdders() != 64 {
		t.Errorf("concurrent adders = %d", m.ConcurrentAdders())
	}
	if NewModExp(8).ConcurrentAdders() != 1 {
		t.Error("small modexp should have one concurrent adder")
	}
}

func TestQFTPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	QFT(0, false)
}
