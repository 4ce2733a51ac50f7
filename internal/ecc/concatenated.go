package ecc

import "math"

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
