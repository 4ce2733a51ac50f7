package ecc

import (
	"sort"
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

// sortedLookup is the decoder oracle: it enumerates every error pattern
// sorted by (weight, mask) and maps each syndrome to the first pattern
// that produces it, all in plain vector algebra.
func sortedLookup(h *gf2.Matrix) map[uint64]gf2.Vec {
	n := h.Cols()
	masks := make([]uint64, 1<<uint(n))
	for i := range masks {
		masks[i] = uint64(i)
	}
	sort.Slice(masks, func(i, j int) bool {
		wi, wj := vecFromMask(n, masks[i]).Weight(), vecFromMask(n, masks[j]).Weight()
		if wi != wj {
			return wi < wj
		}
		return masks[i] < masks[j]
	})
	table := make(map[uint64]gf2.Vec)
	for _, m := range masks {
		e := vecFromMask(n, m)
		s := h.MulVec(e).Uint64()
		if _, ok := table[s]; !ok {
			table[s] = e
		}
	}
	return table
}

// TestPublicDecodeMatchesVectorPath exhaustively checks, over every one of
// the 2^N X-error patterns of both codes, that the bitmask-backed public
// API returns bit-identical syndromes, corrections,
// residuals and fault verdicts to the plain vector-algebra expressions
// over the sort-based lookup oracle.
func TestPublicDecodeMatchesVectorPath(t *testing.T) {
	for _, c := range Codes() {
		lookup := sortedLookup(c.HZ)
		for mask := uint64(0); mask < 1<<uint(c.N); mask++ {
			e := vecFromMask(c.N, mask)
			wantSyn := c.HZ.MulVec(e)
			gotSyn := c.SyndromeX(e)
			if !gotSyn.Equal(wantSyn) {
				t.Fatalf("%s SyndromeX(%s) = %s, want %s", c.Short, e, gotSyn, wantSyn)
			}
			wantCor, ok := lookup[wantSyn.Uint64()]
			if !ok {
				t.Fatalf("%s: lookup table not total at syndrome %s", c.Short, wantSyn)
			}
			gotCor := c.DecodeX(gotSyn)
			if !gotCor.Equal(wantCor) {
				t.Fatalf("%s DecodeX(%s) = %s, want %s", c.Short, gotSyn, gotCor, wantCor)
			}
			wantRes := e.Clone()
			wantRes.Xor(wantCor)
			wantFault := wantRes.Dot(c.LZ)
			gotRes, gotFault := c.CorrectX(e)
			if !gotRes.Equal(wantRes) || gotFault != wantFault {
				t.Fatalf("%s CorrectX(%s) = (%s, %v), want (%s, %v)",
					c.Short, e, gotRes, gotFault, wantRes, wantFault)
			}
		}
	}
}

// TestPublicDecodeAllocationFree is the tentpole assertion: the public
// decode path — syndrome extraction, table decode, and the full
// CorrectX round — performs zero allocations when its results stay on the
// caller's stack. gf2.Vec's inline-word
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
			if _, fault := c.CorrectX(e); fault {
				sink++
			}
		}); n != 0 {
			t.Errorf("%s CorrectX: %v allocs/run, want 0", c.Short, n)
		}
	}
}

// TestDecodePanicsOnUnachievableSyndrome pins the loud-failure contract of
// the dense-table path: a syndrome outside the table's domain must panic,
// not decode to a zero correction. Both paper codes have full-rank check
// matrices, so every syndrome is achievable and their valid bitsets must
// cover the whole oracle domain; a rank-deficient check matrix supplies
// the unachievable syndromes.
func TestDecodePanicsOnUnachievableSyndrome(t *testing.T) {
	for _, c := range Codes() {
		oracle := sortedLookup(c.HZ)
		for s := range c.bitX.table {
			if _, inMap := oracle[uint64(s)]; c.bitX.valid[s] != inMap {
				t.Fatalf("%s: valid[%d] = %v, oracle has it: %v", c.Short, s, c.bitX.valid[s], inMap)
			}
		}
	}

	// The third row is the sum of the first two: only half of the eight
	// 3-bit syndromes are achievable.
	h := gf2.MustMatrix("110", "011", "101")
	d := newBitDecoder(h, gf2.VecFromBits([]int{1, 1, 1}))
	c := &Code{Name: "rank-deficient", N: 3, bitX: d}
	oracle := sortedLookup(h)
	for s := uint64(0); s < 8; s++ {
		syn := gf2.Word(3, s)
		if cor, ok := oracle[s]; ok {
			if got := c.DecodeX(syn); !got.Equal(cor) {
				t.Errorf("DecodeX(%s) = %s, want %s", syn, got, cor)
			}
			continue
		}
		mustPanic(t, "DecodeX(unachievable "+syn.String()+")", func() { c.DecodeX(syn) })
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

// TestVectorFallbackPaths pins the length checks in front of the packed
// decoders: every wrong-length operand — error vector or syndrome —
// panics instead of being decoded by its packed value.
func TestVectorFallbackPaths(t *testing.T) {
	c := Steane()
	wrong := gf2.NewVec(c.N + 1)
	mustPanic(t, "SyndromeX(wrong length)", func() { c.SyndromeX(wrong) })
	mustPanic(t, "CorrectX(wrong length)", func() { c.CorrectX(wrong) })

	// A 5-bit zero syndrome packs to 0, a real syndrome; it must still be
	// refused, as must a 10-bit one whose packed value no syndrome uses.
	odd := gf2.NewVec(5)
	mustPanic(t, "DecodeX(odd-length zero syndrome)", func() { c.DecodeX(odd) })
	bogus := gf2.NewVec(10)
	for i := 0; i < 10; i++ {
		bogus.Set(i, true)
	}
	mustPanic(t, "DecodeX(wrong-length syndrome)", func() { c.DecodeX(bogus) })
}

// TestDecodersSharedAcrossCalls: each code, decoder tables included, is
// built once per process, and every constructor call returns that one
// value. A caller that wants to vary a code works on a copy with fields of
// its own, which leaves the shared code's decoding untouched.
func TestDecodersSharedAcrossCalls(t *testing.T) {
	a, b := Steane(), Steane()
	if a != b || a.bitX != b.bitX {
		t.Fatal("two Steane() calls built separate codes")
	}
	if bs := BaconShor(); bs == a || bs != BaconShor() || bs.bitX == a.bitX {
		t.Fatal("Bacon-Shor not shared per code")
	}
	if allocs := testing.AllocsPerRun(10, func() { Steane(); BaconShor() }); allocs != 0 {
		t.Errorf("Steane()+BaconShor() = %v allocs per call, want 0", allocs)
	}
	e := gf2.VecFromBits([]int{0, 1, 0, 0, 1, 0, 0})
	wantRes, wantFault := a.CorrectX(e)
	mutant := *a
	mutant.HZ = gf2.MustMatrix("0101010", "0110011", "0001111")
	if mutant.HZ.Row(0).Equal(Steane().HZ.Row(0)) {
		t.Fatal("replacing a copy's HZ reached the shared code")
	}
	if res, fault := Steane().CorrectX(e); !res.Equal(wantRes) || fault != wantFault {
		t.Errorf("Steane().CorrectX after mutating a copy = (%s, %v), want (%s, %v)", res, fault, wantRes, wantFault)
	}
}
