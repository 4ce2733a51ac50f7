package ecc

import (
	"math"
	"math/rand"
)

// ConcatenatedMonteCarloX estimates the logical X failure rate of this code
// concatenated to the given level, by hierarchical sampling: a level-L
// block consists of N level-(L-1) blocks, each of which fails independently
// with the empirically sampled lower-level rate; the level-L decoder then
// corrects the pattern of sub-block faults. Level 0 "blocks" are physical
// qubits failing with probability p.
//
// This is the code-capacity concatenation experiment that backs the
// double-exponential reliability claim the CQLA's level-mixing relies on:
// each added level squares the (normalized) failure probability.
//
//cqla:noalloc
func (c *Code) ConcatenatedMonteCarloX(level int, p float64, trials int, rng *rand.Rand) MonteCarloResult {
	if level < 1 {
		panic("ecc: concatenation level must be >= 1")
	}
	faults := 0
	for t := 0; t < trials; t++ {
		if c.sampleBlockFaultX(level, p, rng) {
			faults++
		}
	}
	return binomialResult(p, trials, faults)
}

// sampleBlockFaultX samples whether one level-`level` block suffers a
// logical X fault, by recursively sampling its sub-blocks and decoding.
// It runs on the precomputed bit decoder — one packed error word per block,
// no allocations — and draws rng values in the same order the vector-based
// implementation did, so a fixed stream reproduces the historical counts.
func (c *Code) sampleBlockFaultX(level int, p float64, rng *rand.Rand) bool {
	var e uint64
	for q := 0; q < c.N; q++ {
		var failed bool
		if level == 1 {
			failed = rng.Float64() < p
		} else {
			failed = c.sampleBlockFaultX(level-1, p, rng)
		}
		if failed {
			e |= 1 << uint(q)
		}
	}
	return c.bitX.fault(e)
}

// rate evaluates the exact level-1 logical rate of a fault enumerator at
// physical rate p: f(p) = Σ_k A_k p^k (1−p)^(n−k). Sub-blocks of a
// concatenated block fail independently, so level L is f applied L times.
func (a *weightHist) rate(n int, p float64) float64 {
	f := 0.0
	for k := 0; k <= n; k++ {
		if a[k] != 0 {
			f += float64(a[k]) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		}
	}
	return f
}

// PseudoThresholdX returns the code's level-1 pseudo-threshold for X
// errors: the physical rate at which one level of encoding stops helping,
// f(p) = p. It bisects the exact logical-rate polynomial to float64
// resolution, so the value carries no sampling error.
func (c *Code) PseudoThresholdX() float64 {
	a := &c.bitX.faults
	lo, hi := 0.0, 0.5
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if a.rate(c.N, mid) < mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
