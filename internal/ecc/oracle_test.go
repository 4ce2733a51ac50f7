package ecc

import (
	"math"
	"testing"
)

// oracleZ is the tolerance, in standard errors, for single comparisons of a
// sampled rate against the exact one: a 4σ miss has two-sided probability
// ~6e-5 under the normal approximation.
const oracleZ = 4

// exactRate is the exact logical X-error rate of c at the given
// concatenation level: the level-1 polynomial f applied level times.
func exactRate(c *Code, level int, p float64) float64 {
	a := &c.bitX.faults
	for i := 0; i < level; i++ {
		p = a.rate(c.N, p)
	}
	return p
}

// allowedMisses returns the smallest m with P(X > m) <= alpha for
// X ~ Binomial(n, q): the number of 95% intervals out of n that may miss
// the truth before the test raises a false alarm with probability above
// alpha.
func allowedMisses(n int, q, alpha float64) int {
	cdf := 0.0
	for m := 0; m <= n; m++ {
		lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
		cdf += math.Exp(lg(n) - lg(m) - lg(n-m) + float64(m)*math.Log(q) + float64(n-m)*math.Log(1-q))
		if 1-cdf <= alpha {
			return m
		}
	}
	return n
}

func TestAllowedMisses(t *testing.T) {
	// P(Binomial(72, 0.05) > 10) ≈ 6.5e-4 <= 1e-3 < P(> 9) ≈ 2.3e-3.
	if got := allowedMisses(72, 0.05, 1e-3); got != 10 {
		t.Errorf("allowedMisses(72, 0.05, 1e-3) = %d, want 10", got)
	}
	if got := allowedMisses(10, 0.5, 0); got != 10 {
		t.Errorf("alpha=0 must allow every miss, got %d", got)
	}
}

// TestExactOracleAcceptance checks every estimator against the exact
// logical rate on the montecarlo sweep's grid: both codes, the sweep's
// six physical rates and its 1M-trial budget, at fixed seeds. Each
// 95% interval [LogicalRate − CIZ·StdErr, RateBound] should contain the
// exact rate; with one in twenty expected to miss, the test tolerates the
// miss count a Binomial(N, 0.05) exceeds with probability at most 1e-3.
func TestExactOracleAcceptance(t *testing.T) {
	const trials = 1000000
	rates := []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2}
	ests := []Estimator{Naive, BitSliced, Rare}
	cells := len(Codes()) * len(ests) * len(rates)
	allowed := allowedMisses(cells, 0.05, 1e-3)
	misses := 0
	for ci, c := range Codes() {
		for ei, est := range ests {
			for pi, p := range rates {
				seed := int64(1000*ci + 10*ei + pi)
				r := c.MonteCarlo(p, trials, seed, MC{Estimator: est})
				want := exactRate(c, 1, p)
				lo := r.LogicalRate - CIZ*r.StdErr
				if want < lo || want > r.RateBound {
					misses++
					t.Logf("%s estimator %d p=%g: exact %.4g outside [%.4g, %.4g] (%d trials)",
						c.Short, est, p, want, lo, r.RateBound, r.Trials)
				}
			}
		}
	}
	t.Logf("%d of %d intervals missed the exact rate (allowed %d)", misses, cells, allowed)
	if misses > allowed {
		t.Errorf("%d of %d 95%% intervals missed the exact rate; at most %d allowed", misses, cells, allowed)
	}
}
