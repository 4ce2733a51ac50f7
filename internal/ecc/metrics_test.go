package ecc

import (
	"math"
	"testing"

	"repro/internal/phys"
)

// roundsTo1SigDigit reports whether got rounds to the same one-significant-
// digit value the paper reports. Table 2 states "all numbers are estimates
// and are thus rounded to only one significant digit".
func roundsTo1SigDigit(got, paper float64) bool {
	if paper == 0 {
		return got == 0
	}
	mag := math.Pow(10, math.Floor(math.Log10(math.Abs(paper))))
	return math.Abs(got-paper) <= 0.5*mag+1e-12
}

func TestTable2ECTimes(t *testing.T) {
	p := phys.Projected()
	cases := []struct {
		code  *Code
		level int
		paper float64 // seconds
	}{
		{Steane(), 1, 3.1e-3},
		{Steane(), 2, 0.3},
		{BaconShor(), 1, 1.2e-3},
		{BaconShor(), 2, 0.1},
	}
	for _, c := range cases {
		got := c.code.ECTime(c.level, p).Seconds()
		if !roundsTo1SigDigit(got, c.paper) {
			t.Errorf("%s L%d EC time = %.4g s, paper %.4g s", c.code.Short, c.level, got, c.paper)
		}
	}
}

func TestTable2TransversalGateTimes(t *testing.T) {
	p := phys.Projected()
	cases := []struct {
		code  *Code
		level int
		paper float64
	}{
		{Steane(), 1, 6.2e-3},
		{Steane(), 2, 0.5},
		{BaconShor(), 1, 2.4e-3},
		{BaconShor(), 2, 0.2},
	}
	for _, c := range cases {
		got := c.code.TransversalGateTime(c.level, p).Seconds()
		if !roundsTo1SigDigit(got, c.paper) {
			t.Errorf("%s L%d transversal gate = %.4g s, paper %.4g s", c.code.Short, c.level, got, c.paper)
		}
	}
}

func TestTable2QubitSizes(t *testing.T) {
	p := phys.Projected()
	cases := []struct {
		code  *Code
		level int
		paper float64 // mm²
	}{
		{Steane(), 1, 0.2},
		{Steane(), 2, 3.4},
		{BaconShor(), 1, 0.1},
		{BaconShor(), 2, 2.4},
	}
	for _, c := range cases {
		got := c.code.AreaMM2(c.level, p)
		if !roundsTo1SigDigit(got, c.paper) {
			t.Errorf("%s L%d area = %.4g mm², paper %.4g mm²", c.code.Short, c.level, got, c.paper)
		}
	}
}

func TestTable2QubitCounts(t *testing.T) {
	cases := []struct {
		code        *Code
		level       int
		data, ancil int
		ancilTol    int // Bacon-Shor L2 ancilla: paper 298, closed form 297
	}{
		{Steane(), 1, 7, 21, 0},
		{Steane(), 2, 49, 441, 0},
		{BaconShor(), 1, 9, 12, 0},
		{BaconShor(), 2, 81, 298, 1},
	}
	for _, c := range cases {
		if got := c.code.DataIons(c.level); got != c.data {
			t.Errorf("%s L%d data ions = %d, paper %d", c.code.Short, c.level, got, c.data)
		}
		if got := c.code.AncillaIons(c.level); abs(got-c.ancil) > c.ancilTol {
			t.Errorf("%s L%d ancilla ions = %d, paper %d (tol %d)", c.code.Short, c.level, got, c.ancil, c.ancilTol)
		}
	}
}

func TestECTimeGrowsExponentially(t *testing.T) {
	p := phys.Projected()
	for _, c := range Codes() {
		t1 := c.ECTime(1, p)
		t2 := c.ECTime(2, p)
		t3 := c.ECTime(3, p)
		if ratio := float64(t2) / float64(t1); ratio < 50 {
			t.Errorf("%s EC L2/L1 ratio %.1f, expected ~two orders of magnitude", c.Short, ratio)
		}
		if t3 <= t2 {
			t.Errorf("%s EC time not increasing at L3", c.Short)
		}
	}
}

func TestBaconShorFasterAndSmallerThanSteane(t *testing.T) {
	// The paper's central claim about the [[9,1,3]] code: though it uses
	// more data qubits, it needs far fewer EC resources, so it is both
	// faster and smaller at every level.
	p := phys.Projected()
	st, bs := Steane(), BaconShor()
	for level := 1; level <= 2; level++ {
		if bs.ECTime(level, p) >= st.ECTime(level, p) {
			t.Errorf("L%d: Bacon-Shor EC not faster", level)
		}
		if bs.AreaMM2(level, p) >= st.AreaMM2(level, p) {
			t.Errorf("L%d: Bacon-Shor not smaller", level)
		}
		if bs.TotalIons(level) >= st.TotalIons(level) {
			t.Errorf("L%d: Bacon-Shor uses more ions in total", level)
		}
		if bs.DataIons(level) <= st.DataIons(level) {
			t.Errorf("L%d: Bacon-Shor should have more data ions", level)
		}
	}
}

func TestMetricsBundle(t *testing.T) {
	p := phys.Projected()
	m := Steane().Metrics(2, p)
	if m.Code != "[[7,1,3]]" || m.Level != 2 {
		t.Errorf("metrics identity wrong: %+v", m)
	}
	if total := m.DataIons + m.AncillaIons; total != 490 {
		t.Errorf("Steane L2 total ions = %d, want 490", total)
	}
	if m.ECTime <= 0 || m.TransversalGateTime <= m.ECTime {
		t.Errorf("inconsistent times: %+v", m)
	}
}

func TestLogicalFailureRateEquation1(t *testing.T) {
	// Direct check of Pf = (pth/r^L)(p0/pth)^(2^L).
	c := Steane()
	p0 := 3e-7
	pth := c.Threshold()
	for _, level := range []int{1, 2, 3} {
		want := pth / math.Pow(DefaultCommDistance, float64(level)) *
			math.Pow(p0/pth, math.Pow(2, float64(level)))
		got := c.LogicalFailureRate(level, p0, DefaultCommDistance)
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("L%d: got %g want %g", level, got, want)
		}
	}
	if got := c.LogicalFailureRate(0, p0, DefaultCommDistance); got != p0 {
		t.Errorf("L0 should return p0, got %g", got)
	}
}

func TestFailureRateDoubleExponentialSuppression(t *testing.T) {
	p0 := phys.Projected().AverageFailure()
	for _, c := range Codes() {
		p1 := c.LogicalFailureRate(1, p0, DefaultCommDistance)
		p2 := c.LogicalFailureRate(2, p0, DefaultCommDistance)
		if p1 >= p0 {
			t.Errorf("%s: level 1 does not improve on physical rate below threshold", c.Short)
		}
		if p2 >= p1*p1*1e6 { // double-exponential: p2 ~ p1² (up to prefactors)
			t.Errorf("%s: suppression not double-exponential: p1=%g p2=%g", c.Short, p1, p2)
		}
	}
}

func TestBelowThreshold(t *testing.T) {
	p0 := phys.Projected().AverageFailure()
	for _, c := range Codes() {
		if p0 >= c.Threshold() {
			t.Errorf("%s: projected parameters should be below threshold", c.Short)
		}
		if 1e-2 < c.Threshold() {
			t.Errorf("%s: 1%% failure should be above threshold", c.Short)
		}
	}
}

func TestBaconShorHigherThreshold(t *testing.T) {
	if BaconShor().Threshold() <= Steane().Threshold() {
		t.Error("paper: Bacon-Shor analysis is more favourable due to a higher threshold")
	}
}

func TestMinLevelFor(t *testing.T) {
	c := Steane()
	p0 := phys.Projected().AverageFailure()
	// Factoring a 1024-bit number needs roughly KQ ~ 1e15 operations; the
	// QLA work found level 2 sufficient with projected parameters.
	level := c.MinLevelFor(1e-15, p0, 4)
	if level != 2 {
		t.Errorf("min level for 1e-15 = %d, want 2", level)
	}
	if got := c.MinLevelFor(1e-50, p0, 2); got != -1 {
		t.Errorf("unreachable target should return -1, got %d", got)
	}
}

func TestECTimePanicsOnBadLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Steane().ECTime(0, phys.Projected())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
