package ecc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Estimator selects the Monte Carlo sampler.
type Estimator uint8

const (
	// Naive is the scalar path: one trial per decode on one math/rand
	// stream per 4096-trial shard, continued in place after seeding
	// (lfgStream), drawn against an integer threshold equivalent to
	// rand.Float64() < p, and decoded by one lookup into the fault bitset.
	// Its streams and counts are frozen.
	Naive Estimator = iota
	// BitSliced runs the same experiment 64 trials per word operation on
	// per-block splitmix64 streams (bitslice.go).
	BitSliced
	// Rare samples at a tilted rate and reweights by likelihood ratio
	// (rare.go). The trial count becomes a budget: the estimator spends it
	// in grants of 65,536 trials and stops once the 95% CI is within
	// TargetRelCI of the estimate.
	Rare
)

// MC configures one Monte Carlo campaign. Every campaign injects bit-flip
// (X) errors, decoded against the Z-type logical. The zero value is the
// naive estimator on GOMAXPROCS workers.
type MC struct {
	Estimator Estimator
	// Workers bounds the shard pool (0 or less selects GOMAXPROCS). Every
	// estimator returns the identical result at any setting.
	Workers int
}

// Confidence-interval conventions shared by every estimator and by the
// montecarlo sweep's metrics.
const (
	// CIZ is the normal quantile behind every confidence-interval field:
	// 1.96 standard errors ≈ a 95% interval.
	CIZ = 1.96
	// TargetRelCI is the resolution target: an estimate is resolved once
	// its 95% CI half-width is within 10% of the estimate.
	TargetRelCI = 0.10
)

// mcRareChunk is the Rare estimator's trial grant between resolution
// checks, a whole number of 64-trial blocks.
const mcRareChunk = 65536

// MonteCarloResult summarizes a Pauli-frame error-injection campaign.
type MonteCarloResult struct {
	Trials       int     // trials spent
	PhysicalRate float64 // target rate p the estimate is for
	TiltRate     float64 // rate q the patterns were sampled at (p unless Rare tilts)
	FaultTrials  int     // raw faulted trials observed at the sampling rate
	LogicalRate  float64 // estimate of the logical rate at p
	StdErr       float64 // standard error of LogicalRate
	RateBound    float64 // 95% upper bound on the logical rate (rule-of-three when no faults)
}

// RelCI returns the half-width of the 95% confidence interval relative to
// the estimate (+Inf when no faults were observed).
func (r MonteCarloResult) RelCI() float64 {
	if r.LogicalRate <= 0 {
		return math.Inf(1)
	}
	return CIZ * r.StdErr / r.LogicalRate
}

// Resolved reports whether the estimate is statistically resolved: at least
// one fault observed and a relative CI no wider than target.
func (r MonteCarloResult) Resolved(target float64) bool {
	return r.FaultTrials > 0 && r.RelCI() <= target
}

// binomialResult is the unweighted estimate of the naive and bit-sliced
// samplers: the fault fraction with its binomial standard error.
//
//cqla:noalloc
func binomialResult(p float64, trials, faults int) MonteCarloResult {
	res := MonteCarloResult{Trials: trials, PhysicalRate: p, TiltRate: p, FaultTrials: faults}
	if trials <= 0 {
		return res
	}
	T := float64(trials)
	res.LogicalRate = float64(faults) / T
	res.StdErr = math.Sqrt(res.LogicalRate * (1 - res.LogicalRate) / T)
	res.RateBound = res.LogicalRate + float64(CIZ*res.StdErr) // float64: no fused multiply-add (scripts/fma-check.sh)
	if faults == 0 {
		res.RateBound = 3 / T
	}
	return res
}

// MonteCarlo injects independent errors with probability p on each
// physical qubit of one code block, decodes, and estimates the logical
// fault rate. It is a code-capacity (perfect-syndrome-extraction) model:
// enough to validate the distance of the code and the quadratic suppression
// of logical errors below threshold that the concatenation math of the
// architecture model relies on.
//
// The same (p, trials, seed, Estimator) always returns the same
// result, at any Workers: every estimator splits its trials into units
// whose streams are keyed by (seed, unit index) alone, and the shard pool
// only ever adds integers.
func (c *Code) MonteCarlo(p float64, trials int, seed int64, o MC) MonteCarloResult {
	d := c.bitX
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if trials < 0 {
		trials = 0
	}
	if o.Estimator != Naive && !d.batchOK() {
		panic("ecc: batch Monte Carlo requires at most 6 syndrome bits: " + c.Name)
	}
	k := mcKernel{d: d, n: c.N, est: o.Estimator, p: p, trials: trials, seed: seed}
	switch o.Estimator {
	case Naive:
		t := k.fanOut(0, (trials+mcShardTrials-1)/mcShardTrials, 1, workers)
		return binomialResult(p, trials, t.faults)
	case BitSliced:
		t := k.fanOut(0, (trials+mcBatchLanes-1)/mcBatchLanes, mcBatchShardBlocks, workers)
		return binomialResult(p, trials, t.faults)
	case Rare:
		return c.monteCarloRare(k, workers)
	}
	panic(fmt.Sprintf("ecc: unknown Monte Carlo estimator %d", o.Estimator))
}

// sample runs trials independent injection+decode rounds on the stream s
// and returns the logical-fault count. It is the naive inner loop: error
// masks are built bit by bit, one draw per qubit in the order
// rand.Float64 would consume them, and decoded by one fault-bitset lookup
// without allocating.
//
//cqla:noalloc
func (d *bitDecoder) sample(n int, p float64, trials int, s *lfgStream) int {
	thr := below(p)
	pos := s.pos
	faults := 0
	for t := 0; t < trials; t++ {
		var e uint64
		// Fast path: the trial's n draws are buffered and none is one
		// rand.Float64 resamples (x >= roundsToOne carries into bit 63 of
		// x + 2^63 - roundsToOne). x and thr are at most 2^63, so x - thr
		// wraps into bit 63 exactly when x < thr.
		if pos <= lfgLen-n {
			var resample uint64
			for q, v := range s.buf[pos : pos+n] {
				x := v & int63Mask
				resample |= x + (1<<63 - roundsToOne)
				e |= (x - thr) >> 63 << (uint(q) & 63)
			}
			if resample>>63 == 0 {
				pos += n
				faults += int(d.faultSet[e>>6] >> (e & 63) & 1)
				continue
			}
			e = 0
		}
		// Slow path, draw by draw: refill at the buffer's end and skip
		// the draws Float64 resamples.
		for q := 0; q < n; {
			if pos >= lfgLen {
				s.refill()
				pos = 0
			}
			x := s.buf[pos] & int63Mask
			pos++
			if x >= roundsToOne {
				continue
			}
			e |= (x - thr) >> 63 << (uint(q) & 63)
			q++
		}
		faults += int(d.faultSet[e>>6] >> (e & 63) & 1)
	}
	s.pos = pos
	return faults
}

// The lags of math/rand's default source, an additive lagged-Fibonacci
// generator: its k-th Uint64 is out[k] = out[k-607] + out[k-273] (mod
// 2^64) once k >= 607.
const (
	lfgLen = 607
	lfgTap = 273
)

// lfgStream continues a math/rand source in place: seed reads the first
// lfgLen Uint64s of rand.NewSource, and each refill computes the next
// lfgLen values of the same stream from the recurrence, so the stream
// matches the source draw for draw without an interface call per draw.
type lfgStream struct {
	buf [lfgLen]uint64
	pos int // next unread index into buf; lfgLen means refill first
}

// seed restarts s at the stream of rand.NewSource(seed).
func (s *lfgStream) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.buf {
		s.buf[i] = src.Uint64()
	}
	s.pos = 0
}

// refill replaces the buffer with the next lfgLen values. Value j of the
// new block needs old value j+334 (not yet overwritten while j < 273) and
// new value j-273 (already written once j >= 273).
//
//cqla:noalloc
func (s *lfgStream) refill() {
	b := &s.buf
	for j := 0; j < lfgTap; j++ {
		b[j] += b[j+lfgLen-lfgTap]
	}
	for j := lfgTap; j < lfgLen; j++ {
		b[j] += b[j-lfgTap]
	}
}

// int63Mask keeps the low 63 bits of a draw: rand.Float64 reads Int63,
// which is Uint64 with the top bit cleared.
const int63Mask = 1<<63 - 1

// roundsToOne is the least 63-bit draw x whose rand.Float64 quotient
// float64(x)/(1<<63) rounds to 1.0; Float64 discards such draws and
// resamples. Above 2^62 float64 spacing is 2^10, so the quotient rounds up
// from the midpoint 2^63 - 2^9 on (a tie, broken to the even 2^63).
const roundsToOne = 1<<63 - 1<<9

// below returns the number of 63-bit draws x whose rand.Float64 value
// float64(x)/(1<<63) is < p. The quotient never decreases in x, so
// rand.Float64() < p is exactly x < below(p). The binary search evaluates
// the same expression Float64 does, which also settles NaN and p <= 0
// (0) and p > 1 (2^63).
func below(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mcShardTrials is the naive estimator's shard size. The shard layout is a
// pure function of the trial budget, which is what makes its result
// reproducible at any worker count.
const mcShardTrials = 4096

// shardSeed derives the shard's private seed from the base seed and the
// shard index with a splitmix64 finalizer, so neighbouring shards (and
// neighbouring base seeds) get decorrelated streams.
func shardSeed(seed int64, shard int) int64 {
	v := uint64(seed)*0x9e3779b97f4a7c15 + uint64(shard) + 1
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int64(v)
}

// mcKernel is one estimator's sampling work over a range of units:
// 4096-trial rng shards for Naive, 64-trial blocks for BitSliced and Rare.
// Each unit draws from its own stream keyed by (seed, unit), so any
// partition of a range yields the same tally.
type mcKernel struct {
	d      *bitDecoder
	n      int
	est    Estimator
	p      float64 // sampling rate (the tilt for Rare)
	trials int     // trials through the end of the range; caps the last unit
	seed   int64
}

// mcTally is the integer accumulator the shard pool merges: the fault
// count, plus the faulted trials by error weight for Rare.
type mcTally struct {
	faults int
	hist   weightHist
}

// span runs units [lo, hi) into t.
func (k mcKernel) span(lo, hi int, t *mcTally) {
	switch k.est {
	case Naive:
		var st lfgStream
		for s := lo; s < hi; s++ {
			size := min(mcShardTrials, k.trials-s*mcShardTrials)
			st.seed(shardSeed(k.seed, s))
			t.faults += k.d.sample(k.n, k.p, size, &st)
		}
	case BitSliced:
		t.faults += k.d.sampleBatch(k.n, k.p, lo, hi, k.trials, k.seed)
	case Rare:
		pr := makeProb(k.p)
		t.faults += k.d.sampleBatchHist(k.n, &pr, lo, hi, k.trials, k.seed, &t.hist)
	}
}

// fanOut is the shard pool: it runs units [lo, hi) in work items of step
// units across up to workers goroutines and returns the merged tally.
// Workers race over item indices, never over the unit layout, and tallies
// merge by integer addition, so the result is identical at any worker
// count. One worker (or one item) runs inline, allocation-free.
func (k mcKernel) fanOut(lo, hi, step, workers int) mcTally {
	items := (hi - lo + step - 1) / step
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		var t mcTally
		k.span(lo, hi, &t)
		return t
	}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total mcTally
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local mcTally
			for {
				i := int(next.Add(1)) - 1
				if i >= items {
					break
				}
				a := lo + i*step
				k.span(a, min(a+step, hi), &local)
			}
			mu.Lock()
			total.faults += local.faults
			total.hist.add(&local.hist)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}
