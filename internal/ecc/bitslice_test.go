package ecc

import (
	"math"
	"math/bits"
	"testing"
)

// transposeLanes loads 64 packed error masks (one trial per element, one bit
// per qubit) into the transposed frame the batch kernel consumes (one lane
// per qubit, one trial per bit).
func transposeLanes(n int, masks *[mcBatchLanes]uint64, lanes *[mcMaxQubits]uint64) {
	*lanes = [mcMaxQubits]uint64{}
	for t, e := range masks {
		for q := 0; q < n; q++ {
			lanes[q] |= (e >> uint(q) & 1) << uint(t)
		}
	}
}

// TestBatchFaultLanesMatchesScalar is the exhaustive equivalence guarantee
// of the transposed engine: every one of the 2^N X-error patterns of both
// codes, loaded 64 at a time into transposed lanes, must produce
// exactly the fault bit the scalar bitDecoder assigns it. The bit-sliced
// rework changed the throughput of the trial loop, not the decoder's
// meaning.
func TestBatchFaultLanesMatchesScalar(t *testing.T) {
	for _, c := range Codes() {
		var masks [mcBatchLanes]uint64
		var lanes [mcMaxQubits]uint64
		total := uint64(1) << uint(c.N)
		for base := uint64(0); base < total; base += mcBatchLanes {
			for t := range masks {
				masks[t] = (base + uint64(t)) % total
			}
			transposeLanes(c.N, &masks, &lanes)
			got := c.bitX.faultLanes(&lanes)
			for tr, e := range masks {
				want := c.bitX.fault(e)
				if fault := got>>uint(tr)&1 == 1; fault != want {
					t.Fatalf("%s: pattern %0*b: batch says fault=%v, scalar says %v",
						c.Name, c.N, e, fault, want)
				}
			}
		}
	}
}

// bernoulliLanes is the reference comparator mcProb.lanes must reproduce
// word for word: it walks p's binary expansion with float arithmetic,
// drawing one stream word per digit while any of the 64 uniforms is still
// tied with p. Every step is exact (doubling and subtracting one from a
// value in [1, 2) never round), so P(bit set) is exactly p.
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
			lt |= eq &^ u
			eq &= u
		} else {
			eq &^= u
		}
	}
	return lt
}

// TestLanesMatchBernoulliLanes holds the cached digit path to the float
// comparator: at every rate — out of range, subnormal, exact powers of
// two, expansions longer than one word counted from the binary point, and
// the montecarlo sweep's rates and tilt — nine lanes drawn from each of
// thousands of stream states must match the reference lane for lane, with
// the stream left at the same state after every draw.
func TestLanesMatchBernoulliLanes(t *testing.T) {
	rates := []float64{
		0, -1, 1, 2, math.NaN(), math.Inf(1),
		5e-324, 1e-300, 0x1p-11, 0x1p-12, 1e-4 / 3, 0.0123456789, 1.0 / 3,
		math.Nextafter(1, 0),
		1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.02,
	}
	seeds := mcStream{state: 0x5eed}
	for _, p := range rates {
		pr := makeProb(p)
		for i := 0; i < 4000; i++ {
			got := mcStream{state: seeds.next()}
			want := got
			for q := 0; q < 9; q++ {
				g, w := pr.lanes(&got), bernoulliLanes(&want, p)
				if g != w || got.state != want.state {
					t.Fatalf("p=%g, draw %d lane %d: lanes %016x at state %x, reference %016x at state %x",
						p, i, q, g, got.state, w, want.state)
				}
			}
		}
	}
}

// TestBernoulliLanesExact checks the sampler's edges and its statistical
// meaning: degenerate probabilities are exact, and for a range of rates
// spanning four decades the empirical lane frequency over a large draw
// stays within five standard errors of p.
func TestBernoulliLanesExact(t *testing.T) {
	s := mcStream{state: 123}
	p0, p1 := makeProb(0), makeProb(1)
	if got := p0.lanes(&s); got != 0 {
		t.Errorf("p=0 produced %064b", got)
	}
	if got := p1.lanes(&s); got != ^uint64(0) {
		t.Errorf("p=1 produced %064b", got)
	}
	for _, p := range []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9} {
		const words = 40000 // 2.56M samples
		s := mcStream{state: 0xfeed}
		pr := makeProb(p)
		ones := 0
		for i := 0; i < words; i++ {
			ones += bits.OnesCount64(pr.lanes(&s))
		}
		n := float64(words * 64)
		se := math.Sqrt(p * (1 - p) / n)
		if got := float64(ones) / n; math.Abs(got-p) > 5*se {
			t.Errorf("p=%g: empirical rate %g is %.1f standard errors off",
				p, got, math.Abs(got-p)/se)
		}
	}
}

// TestFlipLaneMatchesTruthTable holds the algebraic-normal-form evaluator
// to the truth table it was transformed from. Bit t of syndrome lane i is
// bit i of t, so one 64-trial call evaluates every syndrome at once: every
// table on up to three syndrome bits, a thousand random tables on four to
// six, and the constant and parity tables at each width. Both codes' flip
// functions are checked the same way.
func TestFlipLaneMatchesTruthTable(t *testing.T) {
	var srows [mcMaxSyndromeBits]uint64
	for tr := 0; tr < mcBatchLanes; tr++ {
		for i := range srows {
			srows[i] |= uint64(tr>>uint(i)&1) << uint(tr)
		}
	}
	check := func(f uint64, k int) {
		t.Helper()
		domain := ^uint64(0) >> uint(64-1<<uint(k))
		if got := flipLane(anf(f, k), &srows) & domain; got != f {
			t.Fatalf("%d syndrome bits, table %0*b: flip lanes %0*b",
				k, 1<<uint(k), f, 1<<uint(k), got)
		}
	}
	for k := 1; k <= 3; k++ {
		for f := uint64(0); f < 1<<(1<<uint(k)); f++ {
			check(f, k)
		}
	}
	rng := mcStream{state: 35}
	for k := 4; k <= mcMaxSyndromeBits; k++ {
		domain := ^uint64(0) >> uint(64-1<<uint(k))
		for i := 0; i < 1000; i++ {
			check(rng.next()&domain, k)
		}
	}
	for k := 1; k <= mcMaxSyndromeBits; k++ {
		domain := ^uint64(0) >> uint(64-1<<uint(k))
		var parity uint64
		for s := 0; s < 1<<uint(k); s++ {
			parity |= uint64(bits.OnesCount(uint(s))&1) << uint(s)
		}
		check(0, k)
		check(domain, k)
		check(parity, k)
	}
	for _, c := range Codes() {
		check(c.bitX.flipBits, len(c.bitX.rows))
	}
	if n := bits.OnesCount64(BaconShor().bitX.flipANF); n != 6 {
		t.Errorf("Bacon-Shor flip function has %d monomials, want 6", n)
	}
}

// TestMonteCarloBatchMatchesScalarStatistically cross-checks the two
// engines as estimators: at a well-resolved physical rate their logical-rate
// estimates must agree within combined counting error. (The engines own
// different RNG streams, so the counts themselves legitimately differ.)
func TestMonteCarloBatchMatchesScalarStatistically(t *testing.T) {
	const (
		p      = 0.01
		trials = 400000
		seed   = 3
	)
	for _, c := range Codes() {
		a := c.MonteCarlo(p, trials, seed, MC{})
		b := c.MonteCarlo(p, trials, seed, MC{Estimator: BitSliced})
		if se := math.Hypot(a.StdErr, b.StdErr); math.Abs(a.LogicalRate-b.LogicalRate) > 6*se {
			t.Errorf("%s: scalar rate %g vs batch rate %g differ by %.1f standard errors",
				c.Name, a.LogicalRate, b.LogicalRate, math.Abs(a.LogicalRate-b.LogicalRate)/se)
		}
		if b.Trials != trials || b.PhysicalRate != p || b.TiltRate != p {
			t.Errorf("%s: batch result echoes %+v", c.Name, b)
		}
	}
}

// TestMonteCarloBatchParallelDeterminism extends the worker-count contract
// to the batch engine, over a budget with a ragged 64-trial tail block.
func TestMonteCarloBatchParallelDeterminism(t *testing.T) {
	checkWorkerDeterminism(t, BitSliced, 0.02, 3*mcShardTrials+517, 99)
}

// TestMonteCarloBatchSeedSensitivity guards the opposite failure: the seed
// must steer the block streams.
func TestMonteCarloBatchSeedSensitivity(t *testing.T) {
	c := Steane()
	a := c.MonteCarlo(0.05, 2*mcShardTrials, 1, MC{Estimator: BitSliced})
	b := c.MonteCarlo(0.05, 2*mcShardTrials, 2, MC{Estimator: BitSliced})
	if a == b {
		t.Error("different seeds produced identical batch Monte Carlo counts")
	}
}

// TestMonteCarloBatchDegenerateBudgets covers the block-layout edges: zero
// budget, sub-block budgets, exact block and shard multiples. Tail masking
// must make a 37-trial budget mean exactly 37 trials.
func TestMonteCarloBatchDegenerateBudgets(t *testing.T) {
	c := BaconShor()
	batch := func(p float64, trials int, seed int64, workers int) MonteCarloResult {
		return c.MonteCarlo(p, trials, seed, MC{Estimator: BitSliced, Workers: workers})
	}
	if got := batch(0.1, 0, 5, 0); got.FaultTrials != 0 || got.Trials != 0 {
		t.Errorf("zero budget: %+v", got)
	}
	for _, trials := range []int{1, 37, mcBatchLanes, mcBatchLanes + 1, mcShardTrials, 2*mcShardTrials + 63} {
		a := batch(0.1, trials, 7, 1)
		b := batch(0.1, trials, 7, 3)
		if a != b {
			t.Errorf("trials=%d: counts differ across worker counts: %+v vs %+v", trials, a, b)
		}
		if a.Trials != trials {
			t.Errorf("trials=%d: result echoes %d", trials, a.Trials)
		}
		if a.FaultTrials > trials {
			t.Errorf("trials=%d: %d faults exceed the budget (tail mask broken)", trials, a.FaultTrials)
		}
	}
	// At p=1 every trial of a distance-3 code faults… only if the all-ones
	// pattern is a logical fault; pin tail masking directly instead: a
	// 1-trial budget can contribute at most 1 fault even at p=1.
	if got := batch(1, 1, 9, 0); got.FaultTrials > 1 {
		t.Errorf("p=1, 1 trial: %d faults", got.FaultTrials)
	}
}

// TestMonteCarloBatchAllocationFree pins the steady-state contract: the
// one-worker batch path — sampling, syndrome lanes, flip lane, popcount —
// performs zero allocations.
func TestMonteCarloBatchAllocationFree(t *testing.T) {
	for _, c := range Codes() {
		if avg := testing.AllocsPerRun(50, func() {
			c.MonteCarlo(0.01, 4096, 21, MC{Estimator: BitSliced, Workers: 1})
		}); avg != 0 {
			t.Errorf("%s: batch Monte Carlo allocates %.1f times per run, want 0", c.Name, avg)
		}
	}
}
