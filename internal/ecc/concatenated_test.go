package ecc

import (
	"math"
	"math/rand"
	"testing"
)

func TestConcatenationSuppressesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range Codes() {
		p := 0.01
		l1 := c.ConcatenatedMonteCarloX(1, p, 200000, rng)
		l2 := c.ConcatenatedMonteCarloX(2, p, 200000, rng)
		if l1.LogicalRate >= p {
			t.Errorf("%s: level 1 rate %.5f not below physical %.3f", c.Short, l1.LogicalRate, p)
		}
		if l2.LogicalRate >= l1.LogicalRate/5 {
			t.Errorf("%s: level 2 (%.6f) should be far below level 1 (%.5f)",
				c.Short, l2.LogicalRate, l1.LogicalRate)
		}
	}
}

func TestConcatenationDoubleExponentialScaling(t *testing.T) {
	// Sub-blocks fail independently, so the hierarchical sampler estimates
	// exactly f applied once per level: level 2's rate is f(f(p)), which
	// below the pseudo-threshold scales like the square of level 1's. Both
	// estimates must contain the exact value within oracleZ standard errors.
	rng := rand.New(rand.NewSource(123))
	c := Steane()
	p := 0.02
	for level := 1; level <= 2; level++ {
		r := c.ConcatenatedMonteCarloX(level, p, 300000, rng)
		want := exactRate(c, level, p)
		if r.FaultTrials == 0 {
			t.Fatalf("level %d: no faults over %d trials", level, r.Trials)
		}
		if z := math.Abs(r.LogicalRate-want) / r.StdErr; z > oracleZ {
			t.Errorf("level %d: sampled rate %.4g is %.1f standard errors from the exact %.4g",
				level, r.LogicalRate, z, want)
		}
	}
	if l1, l2 := exactRate(c, 1, p), exactRate(c, 2, p); l2 >= l1*l1*21 || l2 <= l1*l1*21/2 {
		t.Errorf("exact level-2 rate %.3g is not ~21·l1² = %.3g", l2, 21*l1*l1)
	}
}

func TestConcatenationAboveThresholdHurts(t *testing.T) {
	// Far above threshold, encoding amplifies errors: level 2 should be no
	// better than level 1.
	rng := rand.New(rand.NewSource(7))
	c := Steane()
	p := 0.4
	l1 := c.ConcatenatedMonteCarloX(1, p, 50000, rng).LogicalRate
	l2 := c.ConcatenatedMonteCarloX(2, p, 50000, rng).LogicalRate
	if l2 < l1/2 {
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

func TestConcatenatedPanicsOnLevelZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Steane().ConcatenatedMonteCarloX(0, 0.01, 10, rand.New(rand.NewSource(1)))
}
