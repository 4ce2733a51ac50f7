package ecc

import (
	"math"
	"math/bits"
)

// Rare-event estimation on top of the bit-sliced batch engine.
//
// Below p ≈ 3e-4 the naive estimator needs billions of trials to observe a
// logical fault: at physical rate p a distance-3 code fails at ~O(p²).
// Importance sampling fixes the economics: sample error patterns at a tilted
// physical rate q > p where faults are common, and reweight each faulted
// trial by the likelihood ratio of its pattern under p versus q. For
// i.i.d. bit-flip noise that ratio depends only on the pattern's weight k,
//
//	w(k) = (p/q)^k · ((1-p)/(1-q))^(n-k),
//
// so the whole campaign reduces to an integer histogram of faulted trials
// by error weight. Integer histograms merge across blocks and workers by
// addition, which is what makes the floating-point estimate — computed once,
// in fixed order, from the merged histogram — byte-identical at any
// parallelism. The estimator is exactly unbiased for any q: E_q[w·1_fault] =
// P_p(fault), term by term over patterns.

// mcTiltRate is the tilted sampling rate of the rare-event estimator: far
// enough below threshold that the fault mix still reflects the low-p regime
// (weight-2 patterns dominate), high enough that faults arrive every few
// hundred trials. Rates at or above the tilt sample untilted (w ≡ 1).
const mcTiltRate = 0.02

// tiltRate returns the sampling rate the rare-event estimator uses for a
// target physical rate p. It is a pure function of p, part of the
// determinism contract.
func tiltRate(p float64) float64 {
	if p >= mcTiltRate {
		return p
	}
	return mcTiltRate
}

// weightHist counts faulted trials by error weight (n ≤ mcMaxQubits).
type weightHist [mcMaxQubits + 1]int64

// add merges another histogram into h.
func (h *weightHist) add(o *weightHist) {
	for k := range h {
		h[k] += o[k]
	}
}

// weightAt returns the likelihood ratio of a weight-k pattern under p
// versus the tilt q.
func weightAt(n, k int, p, q float64) float64 {
	if p == q {
		return 1
	}
	return math.Pow(p/q, float64(k)) * math.Pow((1-p)/(1-q), float64(n-k))
}

// rareFromHist turns a merged weight histogram into the estimate. All
// floating-point work happens here, once, in ascending-k order — the
// parallel paths only ever add integers.
func rareFromHist(n, minFaultWeight int, p, q float64, trials int, hist *weightHist) MonteCarloResult {
	res := MonteCarloResult{Trials: trials, PhysicalRate: p, TiltRate: q}
	var sumW, sumW2 float64
	for k := 0; k <= n; k++ {
		cnt := hist[k]
		if cnt == 0 {
			continue
		}
		res.FaultTrials += int(cnt)
		w := weightAt(n, k, p, q)
		// Each float64(…) rounds a product before its add, so no GOARCH
		// fuses the two and the estimate has the same bits everywhere
		// (scripts/fma-check.sh).
		sumW += float64(float64(cnt) * w)
		sumW2 += float64(float64(cnt) * w * w)
	}
	if trials <= 0 {
		return res
	}
	T := float64(trials)
	mean := sumW / T
	res.LogicalRate = mean
	if v := sumW2/T - float64(mean*mean); v > 0 {
		res.StdErr = math.Sqrt(v / T)
	}
	if res.FaultTrials == 0 {
		// Rule of three at the tilt, mapped through the heaviest likelihood
		// ratio a faulting pattern can carry: a distance-d code needs at
		// least (d+1)/2 errors to fault, and w(k) decreases in k for p < q.
		res.RateBound = weightAt(n, minFaultWeight, p, q) * 3 / T
	} else {
		res.RateBound = res.LogicalRate + float64(CIZ*res.StdErr)
	}
	return res
}

// sampleBatchHist is sampleBatch with weight accounting: faulted trials land
// in hist binned by error weight instead of a flat count. The per-block
// weight tally is a vertical (bit-sliced) counter: qubit lanes are summed
// into five carry-save bit planes, and only faulted trials de-transpose
// their 5-bit weight. Returns the faulted-trial count.
//
//cqla:noalloc
func (d *bitDecoder) sampleBatchHist(n int, pr *mcProb, lo, hi, trials int, seed int64, hist *weightHist) int {
	faults := 0
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
		if f == 0 {
			continue
		}
		faults += bits.OnesCount64(f)
		var plane [5]uint64
		for q := 0; q < n; q++ {
			x := lanes[q]
			for j := 0; j < len(plane) && x != 0; j++ {
				carry := plane[j] & x
				plane[j] ^= x
				x = carry
			}
		}
		for m := f; m != 0; m &= m - 1 {
			t := uint(bits.TrailingZeros64(m))
			k := plane[0]>>t&1 |
				plane[1]>>t&1<<1 |
				plane[2]>>t&1<<2 |
				plane[3]>>t&1<<3 |
				plane[4]>>t&1<<4
			hist[k]++
		}
	}
	return faults
}

// monteCarloRare is the Rare estimator: the single-rate early-stop loop.
// It samples k.trials — the budget — at the tilt from point 0's stream,
// shardSeed(seed, 0), in grants of mcRareChunk trials (whole 64-trial
// blocks only), and stops once the estimate is resolved to TargetRelCI.
// Each grant continues the block sequence where the last one ended and
// every decision reads only the accumulated integer histogram, so the
// result — trials spent included — is identical at any worker count.
func (c *Code) monteCarloRare(k mcKernel, workers int) MonteCarloResult {
	p, budget := k.p, k.trials
	q := tiltRate(p)
	k.p, k.seed = q, shardSeed(k.seed, 0)
	var hist weightHist
	res := rareFromHist(c.N, c.minFaultWeight(), p, q, 0, &hist)
	for res.Trials < budget {
		g := min(budget-res.Trials, mcRareChunk) / mcBatchLanes * mcBatchLanes
		if g == 0 {
			break
		}
		lo := res.Trials / mcBatchLanes
		k.trials = res.Trials + g
		t := k.fanOut(lo, lo+g/mcBatchLanes, mcBatchShardBlocks, workers)
		hist.add(&t.hist)
		res = rareFromHist(c.N, c.minFaultWeight(), p, q, k.trials, &hist)
		if res.Resolved(TargetRelCI) {
			break
		}
	}
	return res
}

// minFaultWeight is the smallest error weight that can defeat the decoder:
// (d+1)/2 for a distance-d code.
func (c *Code) minFaultWeight() int { return (c.D + 1) / 2 }
