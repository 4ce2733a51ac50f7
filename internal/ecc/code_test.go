package ecc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCodesValidate(t *testing.T) {
	for _, c := range Codes() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestCodeParameters(t *testing.T) {
	st := Steane()
	if st.N != 7 || st.K != 1 || st.D != 3 {
		t.Errorf("Steane params [[%d,%d,%d]]", st.N, st.K, st.D)
	}
	bs := BaconShor()
	if bs.N != 9 || bs.K != 1 || bs.D != 3 {
		t.Errorf("Bacon-Shor params [[%d,%d,%d]]", bs.N, bs.K, bs.D)
	}
}

// TestDistanceThreeCorrectsAllWeight1 checks A_1 = 0: every single-qubit X
// error is corrected without a logical fault — the
// operational meaning of distance 3.
func TestDistanceThreeCorrectsAllWeight1(t *testing.T) {
	for _, c := range Codes() {
		if a := c.bitX.faults; a[0] != 0 || a[1] != 0 {
			t.Errorf("%s: A_0=%d A_1=%d logical faults, want none", c.Name, a[0], a[1])
		}
	}
}

// TestSomeWeight2ErrorsFail checks A_2 > 0: distance 3 means weight-2 errors
// cannot all be corrected. The perfect Steane code miscorrects every one of
// its C(7,2) = 21 weight-2 patterns into a weight-3 logical operator.
func TestSomeWeight2ErrorsFail(t *testing.T) {
	for _, c := range Codes() {
		if a := c.bitX.faults; a[2] == 0 {
			t.Errorf("%s corrected every weight-2 error; distance would be >= 5", c.Name)
		}
	}
	if a := Steane().bitX.faults; a[2] != 21 {
		t.Errorf("Steane A_2 = %d, want 21", a[2])
	}
}

// TestFaultEnumeratorHalvesPatterns checks the enumerator the decoder build
// stores against an invariant the table cannot fake: e and e plus a
// logical operator share a syndrome, and exactly one of the two residuals
// anticommutes with the opposite logical, so the enumerator sums to
// 2^(n-1). It also pins both codes' X-error enumerators.
func TestFaultEnumeratorHalvesPatterns(t *testing.T) {
	for _, c := range Codes() {
		var sum int64
		for _, a := range c.bitX.faults {
			sum += a
		}
		if sum != 1<<(c.N-1) {
			t.Errorf("%s: %d fault patterns, want 2^%d", c.Name, sum, c.N-1)
		}
	}
	for _, tc := range []struct {
		c    *Code
		want []int64
	}{
		{Steane(), []int64{0, 0, 21, 7, 28, 0, 7, 1}},
		{BaconShor(), []int64{0, 0, 9, 57, 99, 27, 27, 27, 9, 1}},
	} {
		a := tc.c.bitX.faults
		if got := a[:tc.c.N+1]; !slices.Equal(got, tc.want) {
			t.Errorf("%s X enumerator = %v, want %v", tc.c.Name, got, tc.want)
		}
	}
}

func TestZeroSyndromeZeroCorrection(t *testing.T) {
	for _, c := range Codes() {
		if c.bitX.table[0] != 0 {
			t.Errorf("%s: trivial syndrome got nonzero X correction", c.Name)
		}
	}
}

func TestStabilizerErrorsAreHarmless(t *testing.T) {
	// An "error" equal to a stabilizer generator is not an error at all:
	// the decoder must return a residual that is not a logical fault.
	for _, c := range Codes() {
		for i := 0; i < c.HX.Rows(); i++ {
			if _, fault := c.bitX.correct(c.HX.Row(i).Uint64()); fault {
				t.Errorf("%s: X-stabilizer %d decoded to a logical fault", c.Name, i)
			}
		}
	}
}

func TestLogicalOperatorIsDetectedAsFault(t *testing.T) {
	// Injecting a bare logical operator has trivial syndrome and must
	// register as a logical fault.
	for _, c := range Codes() {
		if !c.HZ.MulVec(c.LX).IsZero() {
			t.Errorf("%s: logical X has nonzero syndrome", c.Name)
		}
		if _, fault := c.bitX.correct(c.LX.Uint64()); !fault {
			t.Errorf("%s: logical X not flagged as fault", c.Name)
		}
	}
}

// Property: the decoder's correction always reproduces the observed
// syndrome, for arbitrary error patterns.
func TestDecoderMatchesSyndromeProperty(t *testing.T) {
	for _, c := range Codes() {
		c := c
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			var e uint64
			for q := 0; q < c.N; q++ {
				if rng.Intn(2) == 1 {
					e |= 1 << uint(q)
				}
			}
			s := c.HZ.MulVec(vecFromMask(c.N, e))
			cor := c.bitX.table[c.bitX.syndromeBits(e)]
			return c.HZ.MulVec(vecFromMask(c.N, cor)).Equal(s)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// Property: residual after correction always has trivial syndrome.
func TestResidualHasTrivialSyndromeProperty(t *testing.T) {
	for _, c := range Codes() {
		c := c
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			var e uint64
			for q := 0; q < c.N; q++ {
				if rng.Intn(3) == 0 {
					e |= 1 << uint(q)
				}
			}
			residual, _ := c.bitX.correct(e)
			return c.HZ.MulVec(vecFromMask(c.N, residual)).IsZero()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestMonteCarloSuppression(t *testing.T) {
	// Below threshold the logical rate must be well below the physical
	// rate, and must drop superlinearly as p decreases.
	for _, c := range Codes() {
		hi := c.MonteCarlo(0.02, 200000, 42, MC{})
		lo := c.MonteCarlo(0.002, 200000, 43, MC{})
		if hi.LogicalRate >= hi.PhysicalRate {
			t.Errorf("%s: logical rate %.5f not below physical %.5f", c.Name, hi.LogicalRate, hi.PhysicalRate)
		}
		// Quadratic suppression: a 10x drop in p should give ~100x drop in
		// logical rate; allow a generous factor for MC noise.
		if lo.LogicalRate > hi.LogicalRate/20 {
			t.Errorf("%s: suppression too weak: %.6f -> %.6f", c.Name, hi.LogicalRate, lo.LogicalRate)
		}
	}
}

func TestMonteCarloZeroErrorRate(t *testing.T) {
	for _, c := range Codes() {
		for _, est := range []Estimator{Naive, BitSliced, Rare} {
			// Rare still sees faults at its tilt, but weighs them by zero.
			res := c.MonteCarlo(0, 1000, 1, MC{Estimator: est})
			if res.LogicalRate != 0 || (est != Rare && res.FaultTrials != 0) {
				t.Errorf("%s estimator %d: faults with zero physical error rate: %+v", c.Name, est, res)
			}
		}
	}
}

func TestChannelsRequired(t *testing.T) {
	// Section 5.1: one channel suffices for Steane, Bacon-Shor needs three.
	if got := Steane().ChannelsRequired(); got != 1 {
		t.Errorf("Steane channels = %d, want 1", got)
	}
	if got := BaconShor().ChannelsRequired(); got != 3 {
		t.Errorf("Bacon-Shor channels = %d, want 3", got)
	}
}
