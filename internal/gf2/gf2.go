// Package gf2 provides dense linear algebra over GF(2), the two-element
// field. It is the substrate for the stabilizer-code machinery in
// internal/ecc: parity-check matrices, syndrome computation and rank
// calculations all reduce to GF(2) row operations.
//
// Vectors and matrices are stored as packed 64-bit words, so the row
// operations used by Gaussian elimination are word-parallel.
package gf2

import (
	"fmt"
	"strings"
)

// Vec is a bit vector over GF(2) with a fixed length.
//
// Vectors of at most 64 bits — every vector the stabilizer machinery in
// internal/ecc touches — live entirely in the inline word: constructing,
// copying or returning one never allocates. Wider vectors spill into a
// heap-backed word slice.
//
// The small-vector representation makes the mutation methods (Set, Xor)
// pointer-receiver methods: a value copy of a small vector is an
// independent vector, so mutating a copy could never write back. Wide
// vectors share their backing slice across value copies; treat copies as
// read-only views and use Clone for an independent wide vector.
type Vec struct {
	n    int
	word uint64   // the bits, when n <= 64
	ext  []uint64 // the packed words, when n > 64; nil otherwise
}

// small reports whether the vector fits the inline word.
func (v Vec) small() bool { return v.n <= 64 }

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic("gf2: negative vector length")
	}
	if n <= 64 {
		return Vec{n: n}
	}
	return Vec{n: n, ext: make([]uint64, (n+63)/64)}
}

// VecFromBits builds a vector from a slice of 0/1 ints.
func VecFromBits(bits []int) Vec {
	v := NewVec(len(bits))
	for i, b := range bits {
		if b != 0 {
			v.Set(i, true)
		}
	}
	return v
}

// VecFromString parses a vector from a string of '0' and '1' runes,
// ignoring spaces.
func VecFromString(s string) (Vec, error) {
	s = strings.ReplaceAll(s, " ", "")
	v := NewVec(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vec{}, fmt.Errorf("gf2: invalid bit character %q", r)
		}
	}
	return v, nil
}

// Len returns the vector's length in bits.
func (v Vec) Len() int { return v.n }

// Bit returns the bit at index i.
func (v Vec) Bit(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: bit index %d out of range [0,%d)", i, v.n))
	}
	if v.small() {
		return v.word>>uint(i)&1 == 1
	}
	return v.ext[i/64]>>(uint(i)%64)&1 == 1
}

// Set assigns the bit at index i.
func (v *Vec) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: bit index %d out of range [0,%d)", i, v.n))
	}
	mask := uint64(1) << (uint(i) % 64)
	switch {
	case v.small() && b:
		v.word |= mask
	case v.small():
		v.word &^= mask
	case b:
		v.ext[i/64] |= mask
	default:
		v.ext[i/64] &^= mask
	}
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	if v.small() {
		return v // the value copy is already independent
	}
	w := NewVec(v.n)
	copy(w.ext, v.ext)
	return w
}

// Xor sets v = v XOR u in place; the lengths must match.
func (v *Vec) Xor(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: length mismatch %d vs %d", v.n, u.n))
	}
	if v.small() {
		v.word ^= u.word
		return
	}
	for i := range v.ext {
		v.ext[i] ^= u.ext[i]
	}
}

// Dot returns the GF(2) inner product of v and u (the parity of the
// popcount of their AND).
func (v Vec) Dot(u Vec) bool {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: length mismatch %d vs %d", v.n, u.n))
	}
	if v.small() {
		return popcount(v.word&u.word)%2 == 1
	}
	var acc uint64
	for i := range v.ext {
		acc ^= v.ext[i] & u.ext[i]
	}
	return popcount(acc)%2 == 1
}

// Weight returns the Hamming weight of v.
func (v Vec) Weight() int {
	if v.small() {
		return popcount(v.word)
	}
	w := 0
	for _, word := range v.ext {
		w += popcount(word)
	}
	return w
}

// IsZero reports whether every bit of v is zero.
func (v Vec) IsZero() bool {
	if v.small() {
		return v.word == 0
	}
	for _, word := range v.ext {
		if word != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and u have the same length and bits.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	if v.small() {
		return v.word == u.word
	}
	for i := range v.ext {
		if v.ext[i] != u.ext[i] {
			return false
		}
	}
	return true
}

// Uint64 packs the first min(64, Len) bits of v into a uint64, bit i of the
// vector becoming bit i of the integer. It is convenient as a map key for
// syndrome lookup tables of small codes.
func (v Vec) Uint64() uint64 {
	if v.n == 0 {
		return 0
	}
	if !v.small() {
		return v.ext[0]
	}
	w := v.word
	if v.n < 64 {
		w &= (uint64(1) << uint(v.n)) - 1
	}
	return w
}

// String renders the vector as a bit string, most significant index last.
func (v Vec) String() string {
	var sb strings.Builder
	for i := 0; i < v.n; i++ {
		if v.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func popcount(x uint64) int {
	// Kernighan-free SWAR popcount; math/bits would work too but keeping
	// the package dependency-light makes it trivially portable.
	x = x - ((x >> 1) & 0x5555555555555555)
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}

// Matrix is a dense GF(2) matrix stored as a slice of row vectors.
type Matrix struct {
	rows, cols int
	data       []Vec
}

// NewMatrix returns a zero matrix with the given dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("gf2: negative matrix dimension")
	}
	m := &Matrix{rows: rows, cols: cols, data: make([]Vec, rows)}
	for i := range m.data {
		m.data[i] = NewVec(cols)
	}
	return m
}

// MatrixFromStrings parses one row per string of '0'/'1' characters. All
// rows must have equal length.
func MatrixFromStrings(rows ...string) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	m := &Matrix{rows: len(rows)}
	for i, s := range rows {
		v, err := VecFromString(s)
		if err != nil {
			return nil, fmt.Errorf("gf2: row %d: %w", i, err)
		}
		if i == 0 {
			m.cols = v.Len()
		} else if v.Len() != m.cols {
			return nil, fmt.Errorf("gf2: row %d has length %d, want %d", i, v.Len(), m.cols)
		}
		m.data = append(m.data, v)
	}
	return m, nil
}

// MustMatrix is MatrixFromStrings that panics on error; for static tables.
func MustMatrix(rows ...string) *Matrix {
	m, err := MatrixFromStrings(rows...)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns the i-th row vector. Treat it as read-only: a row of at
// most 64 columns is an independent value copy (mutations never write
// back), while a wider row still shares the matrix's storage.
func (m *Matrix) Row(i int) Vec {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("gf2: row index %d out of range [0,%d)", i, m.rows))
	}
	return m.data[i]
}

// At returns the bit at (row i, column j).
func (m *Matrix) At(i, j int) bool { return m.Row(i).Bit(j) }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, data: make([]Vec, m.rows)}
	for i, r := range m.data {
		c.data[i] = r.Clone()
	}
	return c
}

// MulVec returns m·v over GF(2); v must have length Cols, and the result
// has length Rows. For a parity-check matrix this is exactly the syndrome
// of the error vector v.
func (m *Matrix) MulVec(v Vec) Vec {
	if v.Len() != m.cols {
		panic(fmt.Sprintf("gf2: vector length %d, want %d", v.Len(), m.cols))
	}
	out := NewVec(m.rows)
	for i, row := range m.data {
		if row.Dot(v) {
			out.Set(i, true)
		}
	}
	return out
}

// Rank returns the GF(2) rank of the matrix. The receiver is not modified.
func (m *Matrix) Rank() int {
	work := m.Clone()
	rank := 0
	for col := 0; col < work.cols && rank < work.rows; col++ {
		pivot := -1
		for r := rank; r < work.rows; r++ {
			if work.data[r].Bit(col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work.data[rank], work.data[pivot] = work.data[pivot], work.data[rank]
		for r := 0; r < work.rows; r++ {
			if r != rank && work.data[r].Bit(col) {
				work.data[r].Xor(work.data[rank])
			}
		}
		rank++
	}
	return rank
}

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i, r := range m.data {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(r.String())
	}
	return sb.String()
}
