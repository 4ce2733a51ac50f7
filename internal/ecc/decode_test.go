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
// the 2^N X-error patterns of both codes, that the packed decoder returns
// bit-identical syndromes, corrections, residuals and fault verdicts to
// the plain vector-algebra expressions over the sort-based lookup oracle.
func TestPublicDecodeMatchesVectorPath(t *testing.T) {
	for _, c := range Codes() {
		d := c.bitX
		lookup := sortedLookup(c.HZ)
		for mask := uint64(0); mask < 1<<uint(c.N); mask++ {
			e := vecFromMask(c.N, mask)
			wantSyn := c.HZ.MulVec(e)
			gotSyn := d.syndromeBits(mask)
			if gotSyn != wantSyn.Uint64() {
				t.Fatalf("%s syndromeBits(%s) = %b, want %s", c.Short, e, gotSyn, wantSyn)
			}
			wantCor, ok := lookup[wantSyn.Uint64()]
			if !ok {
				t.Fatalf("%s: lookup table not total at syndrome %s", c.Short, wantSyn)
			}
			if gotCor := d.table[gotSyn]; gotCor != wantCor.Uint64() {
				t.Fatalf("%s table[%s] = %s, want %s", c.Short, wantSyn, vecFromMask(c.N, gotCor), wantCor)
			}
			wantRes := e.Clone()
			wantRes.Xor(wantCor)
			wantFault := wantRes.Dot(c.LZ)
			if gotRes, gotFault := d.correct(mask); gotRes != wantRes.Uint64() || gotFault != wantFault {
				t.Fatalf("%s correct(%s) = (%s, %v), want (%s, %v)",
					c.Short, e, vecFromMask(c.N, gotRes), gotFault, wantRes, wantFault)
			}
		}
	}
}

// TestPublicDecodeAllocationFree: the packed decode path — syndrome
// extraction, table decode and the full correction round — performs zero
// allocations.
func TestPublicDecodeAllocationFree(t *testing.T) {
	for _, c := range Codes() {
		d := c.bitX
		const e = 0b10010 // X errors on qubits 1 and 4
		var sink uint64
		if n := testing.AllocsPerRun(200, func() {
			sink += d.table[d.syndromeBits(e)]
		}); n != 0 {
			t.Errorf("%s syndromeBits+table: %v allocs/run, want 0", c.Short, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if r, fault := d.correct(e); fault {
				sink += r
			}
		}); n != 0 {
			t.Errorf("%s correct: %v allocs/run, want 0", c.Short, n)
		}
	}
}

// TestDecoderTableRankDeficient pins the table build where some syndromes
// are unachievable. Both paper codes have full-rank check matrices, so
// the oracle covers their whole table; a rank-deficient check matrix
// leaves syndromes no error produces, which keep the zero placeholder
// while every achievable one still gets its minimum-weight correction.
func TestDecoderTableRankDeficient(t *testing.T) {
	for _, c := range Codes() {
		if got, want := len(sortedLookup(c.HZ)), len(c.bitX.table); got != want {
			t.Errorf("%s: %d achievable syndromes, want all %d", c.Short, got, want)
		}
	}

	// The third row is the sum of the first two: only half of the eight
	// 3-bit syndromes are achievable.
	h := gf2.MustMatrix("110", "011", "101")
	d := newBitDecoder(h, gf2.VecFromBits([]int{1, 1, 1}))
	oracle := sortedLookup(h)
	if len(oracle) != 4 {
		t.Fatalf("oracle reaches %d syndromes, want 4", len(oracle))
	}
	for s, got := range d.table {
		var want uint64
		if cor, ok := oracle[uint64(s)]; ok {
			want = cor.Uint64()
		}
		if got != want {
			t.Errorf("table[%03b] = %03b, want %03b", s, got, want)
		}
	}
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
	const e = 0b0010010 // X errors on qubits 1 and 4
	wantRes, wantFault := a.bitX.correct(e)
	mutant := *a
	mutant.HZ = gf2.MustMatrix("0101010", "0110011", "0001111")
	if mutant.HZ.Row(0).Equal(Steane().HZ.Row(0)) {
		t.Fatal("replacing a copy's HZ reached the shared code")
	}
	if res, fault := Steane().bitX.correct(e); res != wantRes || fault != wantFault {
		t.Errorf("Steane() decodes %07b to (%07b, %v) after mutating a copy, want (%07b, %v)", e, res, fault, wantRes, wantFault)
	}
}
