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
//	table lookup  a minterm mux over the precomputed flip bitset (below)
//	fault check   fault lane = logical-parity lane XOR correction-flip lane
//
// The syndrome->correction table itself never materializes per trial: what
// the fault check needs from the correction is only its parity against the
// logical operator, and with at most 6 syndrome bits the whole function
// {syndrome -> parity(table[s] & logical)} fits in one uint64 (flipBits).
// Evaluating that boolean function over the syndrome lanes is a sum of
// minterms: for each set bit s of flipBits, AND together the syndrome lanes
// (or their complements) selected by s's bits and OR the product into the
// flip lane. Everything runs on fixed-size stack arrays: zero allocations.

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

//cqla:noalloc
func (s *mcStream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	v := s.state
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// bernoulliLanes draws 64 independent Bernoulli(p) samples, one per bit of
// the returned word. It compares a uniform U in [0,1) against p bit by bit,
// MSB first: each random word supplies the next binary digit of all 64
// uniforms at once, and a trial is decided the moment its digit differs from
// p's. The comparison is exact — p's float64 value has a finite binary
// expansion, so P(bit set) is exactly p, not a truncation — and the
// still-undecided mask empties geometrically, so ~6-7 random words decide
// all 64 trials regardless of how small p is (the scalar path spends 64
// Float64 draws on the same 64 samples).
//
//cqla:noalloc
func bernoulliLanes(s *mcStream, p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	var lt uint64    // trials decided as U < p
	eq := ^uint64(0) // trials still tied with p's expansion
	rem := p         // unconsumed tail of p's binary expansion
	for eq != 0 && rem > 0 {
		rem *= 2
		u := s.next()
		if rem >= 1 {
			rem--
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

// mcProb caches p's binary expansion for the batch inner loop. When the
// expansion fits one word (every p >= 2^-11, and shorter mantissas below
// that) the sampler walks precomputed digit bits instead of re-deriving them
// with float arithmetic per iteration; the word sequence consumed from the
// stream — and therefore the sampled lanes — is identical either way.
type mcProb struct {
	p      float64
	digits uint64 // expansion digits, MSB-first from bit 63
	nd     int    // digit count through the last set digit; 0 = use bernoulliLanes
	z      int    // leading zero digits (p < 2^-z): a branch-free eq-kill run
}

func makeProb(p float64) mcProb {
	pr := mcProb{p: p}
	if p <= 0 || p >= 1 {
		return pr
	}
	frac, exp := math.Frexp(p) // p = frac * 2^exp, frac in [0.5, 1)
	z := -exp                  // leading zero digits of the expansion
	// float64(…) keeps riscv64 from fusing the product into the float to
	// uint64 conversion's subtract (scripts/fma-check.sh).
	mant := uint64(float64(frac * (1 << 53)))
	tz := bits.TrailingZeros64(mant)
	if nd := z + 53 - tz; nd <= 64 {
		pr.digits = mant >> uint(tz) << uint(64-nd)
		pr.nd = nd
		pr.z = z
	}
	return pr
}

// lanes draws 64 Bernoulli(p) samples like bernoulliLanes, from the cached
// digit word when available. The leading zero digits of a small p can only
// retire still-tied trials as U >= p, so that run skips the digit test.
//
//cqla:noalloc
func (pr *mcProb) lanes(s *mcStream) uint64 {
	if pr.nd == 0 {
		return bernoulliLanes(s, pr.p)
	}
	eq := ^uint64(0)
	i := 0
	for ; i < pr.z && eq != 0; i++ {
		eq &^= s.next()
	}
	var lt uint64
	for ; i < pr.nd && eq != 0; i++ {
		u := s.next()
		if pr.digits>>uint(63-i)&1 == 1 {
			lt |= eq &^ u
			eq &= u
		} else {
			eq &^= u
		}
	}
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
	// Minterms partition syndrome space, so the flip lane is the OR of the
	// minterms of the flipping syndromes — or the complement of the OR over
	// the non-flipping ones, whichever set is smaller (flipWork). The inner
	// product is branch-free: bit i of s selects srows[i] or its complement
	// via the 0/^0 mask (s>>i&1)-1.
	var flip uint64
	for w := d.flipWork; w != 0; w &= w - 1 {
		s := uint(bits.TrailingZeros64(w))
		m := ^uint64(0)
		for i := 0; i < nr; i++ {
			m &= srows[i] ^ (uint64(s>>uint(i)&1) - 1)
		}
		flip |= m
	}
	if d.flipCompl {
		flip = ^flip
	}
	return l ^ flip
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
