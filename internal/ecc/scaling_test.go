package ecc

import (
	"testing"
	"time"

	"repro/internal/phys"
)

// TestECTimeScalesWithCycleTime: the timing model is cycle-accurate at
// level 1, so slowing the clock slows error correction proportionally at
// every level.
func TestECTimeScalesWithCycleTime(t *testing.T) {
	fast := phys.Projected()
	slow := phys.Projected()
	slow.CycleTime = 2 * fast.CycleTime
	for _, c := range Codes() {
		for level := 1; level <= 2; level++ {
			tf := c.ECTime(level, fast)
			ts := c.ECTime(level, slow)
			if ts != 2*tf {
				t.Errorf("%s L%d: %v -> %v, want exactly 2x", c.Short, level, tf, ts)
			}
		}
	}
}

// TestAreaScalesWithTrapSize: area goes as the square of the trap pitch.
func TestAreaScalesWithTrapSize(t *testing.T) {
	small := phys.Projected()
	big := phys.Projected()
	big.TrapSizeMicron = 2 * small.TrapSizeMicron
	for _, c := range Codes() {
		a1 := c.AreaMM2(2, small)
		a2 := c.AreaMM2(2, big)
		if ratio := a2 / a1; ratio < 3.999 || ratio > 4.001 {
			t.Errorf("%s: area ratio %.3f, want 4 (quadratic in pitch)", c.Short, ratio)
		}
	}
}

// TestCurrentParametersAreHopeless reproduces the paper's implicit premise:
// at currently demonstrated failure rates no amount of concatenation
// reaches a useful logical failure rate.
func TestCurrentParametersAreHopeless(t *testing.T) {
	p0 := phys.Current().AverageFailure()
	for _, c := range Codes() {
		if p0 < c.Threshold() {
			t.Errorf("%s: current p0=%.3g should exceed threshold %.3g", c.Short, p0, c.Threshold())
		}
		// Above threshold, "encoding" makes each level worse.
		p1 := c.LogicalFailureRate(1, p0, DefaultCommDistance)
		p2 := c.LogicalFailureRate(2, p0, DefaultCommDistance)
		if p2 < p1 {
			t.Errorf("%s: concatenation should not help above threshold (p1=%.3g p2=%.3g)", c.Short, p1, p2)
		}
	}
}

// TestSensitivityToCNOTFailure: degrade only the two-qubit gate by 100x and
// watch the level-2 logical rate blow up by ~the fourth power of the
// p0 increase (2^L exponent with L=2).
func TestSensitivityToCNOTFailure(t *testing.T) {
	good := phys.Projected()
	bad := phys.Projected()
	op := bad.Op(phys.DoubleGate)
	op.FailureRate *= 100
	bad.SetOp(phys.DoubleGate, op)

	c := Steane()
	pGood := c.LogicalFailureRate(2, good.AverageFailure(), DefaultCommDistance)
	pBad := c.LogicalFailureRate(2, bad.AverageFailure(), DefaultCommDistance)
	p0Ratio := bad.AverageFailure() / good.AverageFailure()
	expect := pGood * p0Ratio * p0Ratio * p0Ratio * p0Ratio
	if pBad < expect*0.99 || pBad > expect*1.01 {
		t.Errorf("L2 rate %.3g, want %.3g (quartic in p0)", pBad, expect)
	}
}

// TestTransversalGateAlwaysExceedsEC: a logical gate includes its trailing
// error correction, so it can never be faster.
func TestTransversalGateAlwaysExceedsEC(t *testing.T) {
	p := phys.Projected()
	for _, c := range Codes() {
		for level := 1; level <= 3; level++ {
			if c.TransversalGateTime(level, p) <= c.ECTime(level, p) {
				t.Errorf("%s L%d: gate %v <= EC %v", c.Short, level,
					c.TransversalGateTime(level, p), c.ECTime(level, p))
			}
		}
	}
}

// TestMetricsAtHigherLevels: the closed forms extend to level 3 sanely.
func TestMetricsAtHigherLevels(t *testing.T) {
	p := phys.Projected()
	for _, c := range Codes() {
		m2 := c.Metrics(2, p)
		m3 := c.Metrics(3, p)
		if m3.DataIons != m2.DataIons*c.N {
			t.Errorf("%s: L3 data ions %d, want %d", c.Short, m3.DataIons, m2.DataIons*c.N)
		}
		if m3.ECTime < 10*m2.ECTime {
			t.Errorf("%s: L3 EC time should dwarf L2", c.Short)
		}
		if m3.AreaMM2 <= m2.AreaMM2 {
			t.Errorf("%s: L3 area should exceed L2", c.Short)
		}
	}
}

func TestECTimeDeterministic(t *testing.T) {
	p := phys.Projected()
	c := BaconShor()
	var prev time.Duration
	for i := 0; i < 3; i++ {
		got := c.ECTime(2, p)
		if i > 0 && got != prev {
			t.Fatal("EC time not deterministic")
		}
		prev = got
	}
}
