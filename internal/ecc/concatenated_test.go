package ecc

import (
	"math"
	"testing"
)

// The concatenation tests read the exact rates: sub-blocks of a
// concatenated block fail independently, so level L's logical rate is the
// level-1 polynomial f applied L times (exactRate).

func TestConcatenationSuppressesErrors(t *testing.T) {
	for _, c := range Codes() {
		p := 0.01
		l1, l2 := exactRate(c, 1, p), exactRate(c, 2, p)
		if l1 >= p {
			t.Errorf("%s: level 1 rate %.5f not below physical %.3f", c.Short, l1, p)
		}
		if l2 >= l1/5 {
			t.Errorf("%s: level 2 (%.6f) should be far below level 1 (%.5f)", c.Short, l2, l1)
		}
	}
}

func TestConcatenationDoubleExponentialScaling(t *testing.T) {
	// Below the pseudo-threshold level 2's rate f(f(p)) scales like the
	// square of level 1's: f(x) ≈ A_2·x² with A_2 = 21 for Steane.
	c := Steane()
	p := 0.02
	if l1, l2 := exactRate(c, 1, p), exactRate(c, 2, p); l2 >= l1*l1*21 || l2 <= l1*l1*21/2 {
		t.Errorf("exact level-2 rate %.3g is not ~21·l1² = %.3g", l2, 21*l1*l1)
	}
}

func TestConcatenationAboveThresholdHurts(t *testing.T) {
	// Far above threshold, encoding amplifies errors: level 2 should be no
	// better than level 1.
	c := Steane()
	p := 0.4
	if l1, l2 := exactRate(c, 1, p), exactRate(c, 2, p); l2 < l1 {
		t.Errorf("above threshold, level 2 (%.3f) should not beat level 1 (%.3f)", l2, l1)
	}
}

func TestPseudoThreshold(t *testing.T) {
	for _, c := range Codes() {
		th := c.PseudoThresholdX()
		// Code-capacity pseudo-thresholds for distance-3 CSS codes sit in
		// the percent range — far above the circuit-level thresholds of
		// Table 2's analysis, as expected for this idealized noise model.
		if th < 0.005 || th > 0.35 {
			t.Errorf("%s: pseudo-threshold %.4f outside plausible range", c.Short, th)
		}
		// It is the root of f(p) = p, to float64 resolution.
		if f := exactRate(c, 1, th); math.Abs(f-th) > 1e-12 {
			t.Errorf("%s: f(%.6g) = %.6g, not a fixed point", c.Short, th, f)
		}
		// Below it, encoding helps; above it, encoding hurts — per the
		// exact polynomial and per a sampled estimate.
		if f := exactRate(c, 1, th/4); f >= th/4 {
			t.Errorf("%s: exact f(%.4f) = %.4g, encoding should help", c.Short, th/4, f)
		}
		if f := exactRate(c, 1, 1.5*th); f <= 1.5*th {
			t.Errorf("%s: exact f(%.4f) = %.4g, encoding should hurt", c.Short, 1.5*th, f)
		}
		if below := c.MonteCarlo(th/4, 100000, 31, MC{Estimator: BitSliced}); below.LogicalRate >= th/4 {
			t.Errorf("%s: encoding should help at p=%.4f", c.Short, th/4)
		}
	}
	if a, b := Steane().PseudoThresholdX(), Steane().PseudoThresholdX(); a != b {
		t.Errorf("pseudo-threshold not deterministic: %v vs %v", a, b)
	}
}
