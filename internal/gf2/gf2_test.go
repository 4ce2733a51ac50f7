package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := NewVec(130)
	if v.Len() != 130 {
		t.Fatalf("len = %d", v.Len())
	}
	if !v.IsZero() {
		t.Error("new vec should be zero")
	}
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	if v.Weight() != 3 {
		t.Errorf("weight = %d, want 3", v.Weight())
	}
	if !v.Bit(64) || v.Bit(63) {
		t.Error("bit placement wrong across word boundary")
	}
	v.Set(64, false)
	if v.Bit(64) || v.Weight() != 2 {
		t.Error("Set did not clear")
	}
}

func TestVecFromBitsAndString(t *testing.T) {
	v := VecFromBits([]int{1, 0, 1, 1})
	if v.String() != "1011" {
		t.Errorf("String = %q", v.String())
	}
	u, err := VecFromString("10 11")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(u) {
		t.Error("parse mismatch")
	}
	if _, err := VecFromString("10x1"); err == nil {
		t.Error("invalid character should error")
	}
}

func TestXorDotWeight(t *testing.T) {
	a := VecFromBits([]int{1, 1, 0, 1})
	b := VecFromBits([]int{0, 1, 1, 1})
	if !a.Dot(b) {
		// common support {1,3}: parity 0 -> false. Recompute expectation:
		// a&b = 0,1,0,1 -> weight 2 -> even -> Dot false.
	} else {
		t.Error("dot of even overlap should be false")
	}
	a.Xor(b)
	if a.String() != "1010" {
		t.Errorf("xor = %q", a.String())
	}
}

func TestUint64(t *testing.T) {
	v := VecFromBits([]int{0, 1, 0, 0, 1})
	if v.Uint64() != 0b10010 {
		t.Errorf("uint64 = %b", v.Uint64())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := VecFromBits([]int{1, 0, 1})
	b := a.Clone()
	b.Set(0, false)
	if !a.Bit(0) {
		t.Error("clone shares storage")
	}
}

func TestMatrixParseAndAccess(t *testing.T) {
	m := MustMatrix(
		"1010101",
		"0110011",
		"0001111",
	)
	if m.Rows() != 3 || m.Cols() != 7 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if !m.At(0, 0) || m.At(0, 1) {
		t.Error("parse placed bits wrong")
	}
	if _, err := MatrixFromStrings("101", "10"); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestMulVecIsSyndrome(t *testing.T) {
	// Hamming(7,4) check matrix; e_i should produce the binary of i+1 in
	// column-index form. Columns here are 1..7 in binary (rows are the
	// bit-planes).
	h := MustMatrix(
		"1010101",
		"0110011",
		"0001111",
	)
	for i := 0; i < 7; i++ {
		e := NewVec(7)
		e.Set(i, true)
		s := h.MulVec(e)
		got := 0
		if s.Bit(0) {
			got |= 1
		}
		if s.Bit(1) {
			got |= 2
		}
		if s.Bit(2) {
			got |= 4
		}
		if got != i+1 {
			t.Errorf("syndrome of e%d = %d, want %d", i, got, i+1)
		}
	}
}

func TestRank(t *testing.T) {
	m := MustMatrix(
		"1010101",
		"0110011",
		"0001111",
	)
	if r := m.Rank(); r != 3 {
		t.Errorf("rank = %d, want 3", r)
	}
	dep := MustMatrix(
		"110",
		"011",
		"101", // = row0 XOR row1
	)
	if r := dep.Rank(); r != 2 {
		t.Errorf("rank = %d, want 2", r)
	}
	if NewMatrix(0, 5).Rank() != 0 {
		t.Error("empty matrix rank should be 0")
	}
}

func TestRankDoesNotMutate(t *testing.T) {
	m := MustMatrix("110", "011")
	before := m.String()
	m.Rank()
	if m.String() != before {
		t.Error("Rank mutated the matrix")
	}
}

// Property: for random vectors, (a xor b) dot c == (a dot c) xor (b dot c) —
// bilinearity of the GF(2) inner product.
func TestDotBilinearProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b, c := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		ab := a.Clone()
		ab.Xor(b)
		return ab.Dot(c) == (a.Dot(c) != b.Dot(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: weight(a xor b) = weight(a) + weight(b) - 2*weight(a and b).
func TestXorWeightProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, b := randVec(rng, n), randVec(rng, n)
		and := 0
		for i := 0; i < n; i++ {
			if a.Bit(i) && b.Bit(i) {
				and++
			}
		}
		xor := a.Clone()
		xor.Xor(b)
		return xor.Weight() == a.Weight()+b.Weight()-2*and
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MulVec is linear: H(a xor b) = Ha xor Hb.
func TestMulVecLinearProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(60)
		m := randMatrix(rng, rows, cols)
		a, b := randVec(rng, cols), randVec(rng, cols)
		ab := a.Clone()
		ab.Xor(b)
		lhs := m.MulVec(ab)
		rhs := m.MulVec(a)
		rhs.Xor(m.MulVec(b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randMatrix returns a rows x cols matrix of uniform random bits.
func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	lines := make([]string, rows)
	for i := range lines {
		lines[i] = randVec(rng, cols).String()
	}
	return MustMatrix(lines...)
}

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 64, 1024)
	v := randVec(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(v)
	}
}
