package ecc

import (
	"math"
	"math/bits"
)

// Bit-sliced batch Monte Carlo engine.
//
// The scalar bitDecoder packs one trial's error pattern into a uint64 word
// (one bit per qubit). The batch engine transposes that layout: one uint64
// lane per *qubit*, with 64 independent trials across the bit positions. In
// the transposed frame every step of the trial loop becomes a whole-word
// operation on 64 trials at once:
//
//	sampling      one Bernoulli(p) draw per qubit lane (a handful of
//	              splitmix64 words decide all 64 trials exactly)
//	syndrome      syndrome row i = XOR of the qubit lanes in check row i
//	table lookup  the flip function's algebraic normal form (below)
//	fault check   fault lane = logical-parity lane XOR correction-flip lane
//
// The syndrome->correction table itself never materializes per trial: what
// the fault check needs from the correction is only its parity against the
// logical operator, and with at most 6 syndrome bits the whole function
// {syndrome -> parity(table[s] & logical)} fits in one uint64 (flipBits).
// Its Möbius transform (flipANF) writes that function as an XOR of
// monomials, each the AND of a few syndrome bits, so the flip lane is the
// XOR over monomials of the AND of the selected syndrome lanes — for
// Bacon-Shor, 3 ANDs and 5 XORs. Everything runs on fixed-size stack
// arrays: zero allocations.

const (
	// mcBatchLanes is the number of trials held per machine word.
	mcBatchLanes = 64
	// mcMaxQubits bounds the transposed lane array; newBitDecoder caps
	// any constructible code at this many physical qubits.
	mcMaxQubits = maxDecoderQubits
	// mcMaxSyndromeBits bounds the syndrome lane array. Both paper codes
	// fit (Steane: 3 rows; Bacon-Shor: 6 Z-rows, 2 X-rows), and it is
	// exactly the widest syndrome whose flip function fits one uint64.
	mcMaxSyndromeBits = 6
	// mcBatchShardBlocks groups 64-trial blocks into work items for the
	// shard pool, sized to match the naive path's 4096-trial shards.
	mcBatchShardBlocks = mcShardTrials / mcBatchLanes
)

// mcStream is a splitmix64 generator: the per-block PRNG of the batch
// engine. Each 64-trial block owns a private stream seeded from (seed, block
// index) alone, which is what makes the batch estimate independent of worker
// count and scheduling order.
type mcStream struct{ state uint64 }

// mcGamma is splitmix64's state increment: word k of a stream at state s
// is mix(s + k*mcGamma).
const mcGamma = 0x9e3779b97f4a7c15

//cqla:noalloc
func (s *mcStream) next() uint64 {
	s.state += mcGamma
	return mix(s.state)
}

// mix is splitmix64's output function.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// mcProb is p's binary expansion, cached for the batch inner loop, which
// draws 64 Bernoulli(p) samples at a time (lanes) by comparing 64 uniforms
// U in [0,1) against p bit by bit, MSB first: each random word supplies the
// next binary digit of all 64 uniforms, and a trial is decided the moment
// its digit differs from p's. The comparison is exact — p's float64 value
// has a finite binary expansion, so P(bit set) is exactly p — and the
// still-undecided mask empties geometrically, so a handful of words past
// the leading zeros decide all 64 trials.
//
// The expansion is z zero digits followed by p's significant digits, at
// most 53 of them for any float64, so they always fit one word.
type mcProb struct {
	digits uint64 // significant digits, MSB-first from bit 63; zeros past the last one end them
	z      int    // leading zero digits (p < 2^-z)
	ones   uint64 // the lanes when p is outside (0, 1): all set for p >= 1, else none
}

func makeProb(p float64) mcProb {
	if !(p > 0) {
		return mcProb{} // p <= 0 and NaN set no lane
	}
	if p >= 1 {
		return mcProb{ones: ^uint64(0)}
	}
	frac, exp := math.Frexp(p) // p = frac * 2^exp, frac in [0.5, 1)
	// float64(…) keeps riscv64 from fusing the product into the float to
	// uint64 conversion's subtract (scripts/fma-check.sh).
	mant := uint64(float64(frac * (1 << 53)))
	// Bit 52 of mant is p's first set digit; the trailing zeros that
	// follow its last one end the digit loop (lanes) with the word.
	return mcProb{digits: mant << 11, z: -exp}
}

// lanes draws 64 Bernoulli(p) samples, one per bit of the returned word,
// from the stream: one word per digit of p's expansion while any trial is
// still tied with it. A zero digit can only retire tied trials as U >= p,
// so the leading zeros of a small p only clear the tied mask, four words
// at a time while four remain. A group computes its four words without
// branching; when the mask empties inside it, the stream advances by
// exactly the words the one-at-a-time loop would have drawn, so the
// stream position — and every later lane — does not depend on the
// grouping. Only that exit reads the words to find the count: a group
// that leaves trials tied advances by four, and the next group's words
// need not wait for this one's.
//
//cqla:noalloc
func (pr *mcProb) lanes(s *mcStream) uint64 {
	eq := ^uint64(0) // trials still tied with p's expansion
	z := pr.z
	for ; z >= 4; z -= 4 {
		w1 := s.state + mcGamma
		w2 := w1 + mcGamma
		w3 := w2 + mcGamma
		e1 := eq &^ mix(w1)
		e2 := e1 &^ mix(w2)
		e3 := e2 &^ mix(w3)
		eq = e3 &^ mix(w3+mcGamma)
		if eq == 0 {
			// The first word is always drawn; each later one only while
			// the mask before it is nonzero. (x|-x)>>63 is 1 iff x != 0.
			s.state += (1 + (e1|-e1)>>63 + (e2|-e2)>>63 + (e3|-e3)>>63) * mcGamma
			return 0 // every trial rose above p
		}
		s.state = w3 + mcGamma
	}
	for ; z > 0 && eq != 0; z-- {
		eq &^= s.next()
	}
	lt := pr.ones // trials decided as U < p
	for d := pr.digits; d != 0 && eq != 0; d <<= 1 {
		u := s.next()
		if d>>63 == 1 {
			// p's digit is 1: a 0-digit uniform drops below p.
			lt |= eq &^ u
			eq &= u
		} else {
			// p's digit is 0: a 1-digit uniform rises above p.
			eq &^= u
		}
	}
	// Trials still tied when p's expansion ends satisfy U >= p.
	return lt
}

// batchOK reports whether this decoder supports the transposed batch path
// (syndrome narrow enough for the one-word flip function).
func (d *bitDecoder) batchOK() bool {
	return len(d.rows) <= mcMaxSyndromeBits
}

// faultLanes decodes one transposed block: given one lane per qubit it
// returns the fault lane, bit t set iff trial t's residual after the
// minimum-weight correction anticommutes with the logical operator.
//
//cqla:noalloc
func (d *bitDecoder) faultLanes(lanes *[mcMaxQubits]uint64) uint64 {
	var srows [mcMaxSyndromeBits]uint64
	nr := len(d.rows)
	for i := 0; i < nr; i++ {
		var s uint64
		for m := d.rows[i]; m != 0; m &= m - 1 {
			s ^= lanes[bits.TrailingZeros64(m)]
		}
		srows[i] = s
	}
	// Parity of the raw error against the logical operator; the correction's
	// contribution is folded in from the precomputed flip function.
	var l uint64
	for m := d.logical; m != 0; m &= m - 1 {
		l ^= lanes[bits.TrailingZeros64(m)]
	}
	return l ^ flipLane(d.flipANF, &srows)
}

// anf returns the algebraic normal form of the k-variable boolean function
// whose truth table is f (bit s = f(s)): bit m of the result is set when
// the monomial AND of the variables in mask m appears in f's XOR
// expansion. It is the Möbius transform, a[m] = XOR of f(s) over s ⊆ m,
// computed one variable at a time: every position with bit i set takes
// the XOR of the position without it.
func anf(f uint64, k int) uint64 {
	lo := [mcMaxSyndromeBits]uint64{
		0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
		0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
	} // lo[i]: the positions whose bit i is clear
	for i := 0; i < k; i++ {
		f ^= (f & lo[i]) << (1 << uint(i))
	}
	return f
}

// flipLane evaluates the function whose algebraic normal form is a (see
// anf) on 64 trials at once: bit t of srows[i] is variable i of trial t,
// and bit t of the result is the function's value for trial t. The empty
// monomial is the constant 1, an all-ones product.
//
//cqla:noalloc
func flipLane(a uint64, srows *[mcMaxSyndromeBits]uint64) uint64 {
	var flip uint64
	for ; a != 0; a &= a - 1 {
		prod := ^uint64(0)
		for m := bits.TrailingZeros64(a); m != 0; m &= m - 1 {
			prod &= srows[bits.TrailingZeros(uint(m))]
		}
		flip ^= prod
	}
	return flip
}

// sampleBatch runs the transposed trial loop over blocks [lo, hi) and
// returns the logical-fault count. Block b draws its lanes from a private
// splitmix64 stream seeded by (seed, b); trials caps the final block so a
// budget that is not a multiple of 64 keeps its exact size.
//
//cqla:noalloc
func (d *bitDecoder) sampleBatch(n int, p float64, lo, hi, trials int, seed int64) int {
	faults := 0
	pr := makeProb(p)
	var lanes [mcMaxQubits]uint64
	for b := lo; b < hi; b++ {
		s := mcStream{state: uint64(shardSeed(seed, b))}
		for q := 0; q < n; q++ {
			lanes[q] = pr.lanes(&s)
		}
		f := d.faultLanes(&lanes)
		if rem := trials - b*mcBatchLanes; rem < mcBatchLanes {
			f &= ^uint64(0) >> uint(mcBatchLanes-rem)
		}
		faults += bits.OnesCount64(f)
	}
	return faults
}
