package ecc

import (
	"math"
	"testing"

	"repro/internal/gf2"
)

// vecFromMask expands a packed error mask into a support vector.
func vecFromMask(n int, mask uint64) gf2.Vec {
	v := gf2.NewVec(n)
	for i := 0; i < n; i++ {
		if mask>>uint(i)&1 == 1 {
			v.Set(i, true)
		}
	}
	return v
}

// TestPublicDecodeMatchesVectorPath exhaustively checks, over every one of
// the 2^N error patterns of both codes and both error types, that the
// bitmask-backed public API returns bit-identical syndromes, corrections,
// residuals and fault verdicts to the plain vector-algebra expressions it
// replaced.
func TestPublicDecodeMatchesVectorPath(t *testing.T) {
	for _, c := range Codes() {
		type side struct {
			name    string
			h       *gf2.Matrix
			lookup  map[uint64]gf2.Vec
			logical gf2.Vec
			syn     func(gf2.Vec) gf2.Vec
			dec     func(gf2.Vec) gf2.Vec
			cor     func(gf2.Vec) (gf2.Vec, bool)
		}
		sides := []side{
			{"X", c.HZ, c.decodeX, c.LZ, c.SyndromeX, c.DecodeX, c.CorrectX},
			{"Z", c.HX, c.decodeZ, c.LX, c.SyndromeZ, c.DecodeZ, c.CorrectZ},
		}
		for _, s := range sides {
			for mask := uint64(0); mask < 1<<uint(c.N); mask++ {
				e := vecFromMask(c.N, mask)
				wantSyn := s.h.MulVec(e)
				gotSyn := s.syn(e)
				if !gotSyn.Equal(wantSyn) {
					t.Fatalf("%s Syndrome%s(%s) = %s, want %s", c.Short, s.name, e, gotSyn, wantSyn)
				}
				wantCor, ok := s.lookup[wantSyn.Uint64()]
				if !ok {
					t.Fatalf("%s: lookup table not total at syndrome %s", c.Short, wantSyn)
				}
				gotCor := s.dec(gotSyn)
				if !gotCor.Equal(wantCor) {
					t.Fatalf("%s Decode%s(%s) = %s, want %s", c.Short, s.name, gotSyn, gotCor, wantCor)
				}
				wantRes := e.Clone()
				wantRes.Xor(wantCor)
				wantFault := wantRes.Dot(s.logical)
				gotRes, gotFault := s.cor(e)
				if !gotRes.Equal(wantRes) || gotFault != wantFault {
					t.Fatalf("%s Correct%s(%s) = (%s, %v), want (%s, %v)",
						c.Short, s.name, e, gotRes, gotFault, wantRes, wantFault)
				}
			}
		}
	}
}

// TestPublicDecodeAllocationFree is the tentpole assertion: the public
// decode path — syndrome extraction, table decode, and the full
// CorrectX/CorrectZ round — performs zero allocations when its results
// stay on the caller's stack, for both error types. gf2.Vec's inline-word
// representation is what closes the last gap: a small vector is a value,
// so even the (vector, bool) pair CorrectX returns costs nothing.
func TestPublicDecodeAllocationFree(t *testing.T) {
	for _, c := range Codes() {
		e := gf2.NewVec(c.N)
		e.Set(1, true)
		e.Set(4, true)
		var sink int
		if n := testing.AllocsPerRun(200, func() {
			s := c.SyndromeX(e)
			cor := c.DecodeX(s)
			sink += cor.Weight()
		}); n != 0 {
			t.Errorf("%s SyndromeX+DecodeX: %v allocs/run, want 0", c.Short, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			s := c.SyndromeZ(e)
			cor := c.DecodeZ(s)
			sink += cor.Weight()
		}); n != 0 {
			t.Errorf("%s SyndromeZ+DecodeZ: %v allocs/run, want 0", c.Short, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, fault := c.CorrectX(e); fault {
				sink++
			}
		}); n != 0 {
			t.Errorf("%s CorrectX: %v allocs/run, want 0", c.Short, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, fault := c.CorrectZ(e); fault {
				sink++
			}
		}); n != 0 {
			t.Errorf("%s CorrectZ: %v allocs/run, want 0", c.Short, n)
		}
	}
}

// TestDecodePanicsOnUnachievableSyndrome pins the loud-failure contract of
// the dense-table path: a syndrome outside the lookup domain must panic,
// not decode to a zero correction.
func TestDecodePanicsOnUnachievableSyndrome(t *testing.T) {
	c := BaconShor() // HX has 2 rows but rank 2; all 4 X-syndromes achievable
	// The Z-side table of Bacon-Shor is total over 2^6 syndromes (rank 6),
	// so manufacture an unachievable one on Steane instead: HZ has 3 rows
	// of rank 3 — total too. Use a syndrome wider than the row count to hit
	// the fallback validation through the vector path instead.
	_ = c
	st := Steane()
	// Every 3-bit syndrome of Steane is achievable (the Hamming code is
	// perfect), so totality means no panic can fire on honest input; check
	// the valid bitset agrees with the lookup map domain instead.
	for s := range st.bitX.table {
		_, inMap := st.decodeX[uint64(s)]
		if st.bitX.valid[s] != inMap {
			t.Fatalf("valid[%d] = %v, lookup map has it: %v", s, st.bitX.valid[s], inMap)
		}
	}
	for s := range c.bitZ.table {
		_, inMap := c.decodeZ[uint64(s)]
		if c.bitZ.valid[s] != inMap {
			t.Fatalf("bacon-shor valid[%d] = %v, lookup map has it: %v", s, c.bitZ.valid[s], inMap)
		}
	}
}

// BenchmarkPublicDecode measures the public-API decode path — syndrome
// extraction plus table decode — which the bitmask backing makes
// allocation-free for stack-resident results.
func BenchmarkPublicDecode(b *testing.B) {
	c := Steane()
	e := gf2.NewVec(c.N)
	e.Set(2, true)
	e.Set(5, true)
	weight := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := c.SyndromeX(e)
		cor := c.DecodeX(s)
		weight += cor.Weight()
	}
	if weight < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkPublicCorrect measures the full correction round (decode plus
// residual construction), allocation-free since gf2.Vec went inline-word.
func BenchmarkPublicCorrect(b *testing.B) {
	c := Steane()
	e := gf2.NewVec(c.N)
	e.Set(2, true)
	e.Set(5, true)
	faults := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fault := c.CorrectX(e); fault {
			faults++
		}
	}
	if faults < 0 {
		b.Fatal("impossible")
	}
}

// mustPanic runs f and reports whether it panicked.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestVectorFallbackPaths exercises the in-worker vector fallbacks the
// packed fast paths guard: wrong-length operands panic exactly as the
// pre-packed API did (inside MulVec), and a wrong-length syndrome still
// resolves through the lookup map when its packed value is a real
// syndrome.
func TestVectorFallbackPaths(t *testing.T) {
	c := Steane()
	wrong := gf2.NewVec(c.N + 1)
	mustPanic(t, "SyndromeX(wrong length)", func() { c.SyndromeX(wrong) })
	mustPanic(t, "SyndromeZ(wrong length)", func() { c.SyndromeZ(wrong) })
	mustPanic(t, "CorrectX(wrong length)", func() { c.CorrectX(wrong) })
	mustPanic(t, "CorrectZ(wrong length)", func() { c.CorrectZ(wrong) })

	// A 5-bit zero "syndrome" has packed value 0 — a real syndrome — so
	// the historical map path returns the identity correction.
	odd := gf2.NewVec(5)
	if cor := c.DecodeX(odd); !cor.IsZero() || cor.Len() != c.N {
		t.Errorf("DecodeX(odd-length zero syndrome) = %s, want zero correction", cor)
	}
	if cor := c.DecodeZ(odd); !cor.IsZero() || cor.Len() != c.N {
		t.Errorf("DecodeZ(odd-length zero syndrome) = %s, want zero correction", cor)
	}
	// A packed value no achievable syndrome uses must fail loudly.
	bogus := gf2.NewVec(10)
	for i := 0; i < 10; i++ {
		bogus.Set(i, true)
	}
	mustPanic(t, "DecodeX(unachievable syndrome)", func() { c.DecodeX(bogus) })
	mustPanic(t, "DecodeZ(unachievable syndrome)", func() { c.DecodeZ(bogus) })
}

// TestMonteCarloZSeededMatchesParallel covers the Z basis of the naive
// estimator and its worker-count contract.
func TestMonteCarloZSeededMatchesParallel(t *testing.T) {
	c := BaconShor()
	serial := c.MonteCarlo(0.02, 9000, 3, MC{Basis: BasisZ, Workers: 1})
	pooled := c.MonteCarlo(0.02, 9000, 3, MC{Basis: BasisZ})
	if serial != pooled {
		t.Errorf("Z-side seeded counts differ: serial %+v, pooled %+v", serial, pooled)
	}
	if serial.LogicalRate < 0 || serial.LogicalRate > 1 {
		t.Errorf("logical rate %v outside [0,1]", serial.LogicalRate)
	}
	if r := (MonteCarloResult{}); r.LogicalRate != 0 || !math.IsInf(r.RelCI(), 1) || r.Resolved(1) {
		t.Errorf("zero-trial result %+v should read as unresolved rate 0", r)
	}
}
