package ecc

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestBitDecoderMatchesLookup pins the hot-path fault verdict to the
// reference vector algebra over the complete error space: for every one
// of the 2^N X-error patterns of both codes, bitX.fault must agree with
// the sort-based lookup oracle's correction on whether the residual
// anticommutes with the logical operator. This is the exhaustive guarantee
// that the Monte Carlo rework changed the speed of decoding, not its
// meaning.
func TestBitDecoderMatchesLookup(t *testing.T) {
	for _, c := range Codes() {
		lookup := sortedLookup(c.HZ)
		for e := uint64(0); e < 1<<uint(c.N); e++ {
			v := vecFromMask(c.N, e)
			v.Xor(lookup[c.HZ.MulVec(v).Uint64()])
			if got, want := c.bitX.fault(e), v.Dot(c.LZ); got != want {
				t.Fatalf("%s: bitX.fault(%0*b) = %v, the oracle says %v", c.Name, c.N, e, got, want)
			}
		}
	}
}

// TestMonteCarloTrialLoopAllocationFree is the before/after assertion of
// the hot-loop fix: the decoder setup (check rows, syndrome table, logical
// mask) is hoisted into the Code at construction, so the per-trial work —
// error sampling, syndrome extraction, table decode, logical-fault test —
// must not allocate at all. The old implementation allocated four times
// per trial (error vector, syndrome vector, two correction clones).
func TestMonteCarloTrialLoopAllocationFree(t *testing.T) {
	for _, c := range Codes() {
		var st lfgStream
		st.seed(11)
		if avg := testing.AllocsPerRun(50, func() {
			c.bitX.sample(c.N, 0.01, 200, &st)
		}); avg != 0 {
			t.Errorf("%s: the naive trial loop allocates %.1f times per 200-trial run, want 0", c.Name, avg)
		}
	}
}

// checkWorkerDeterminism is the contract the explore runner's
// byte-identical-JSON guarantee rests on: the same (p, trials, seed) must
// produce the identical result, floats included, at 1, 4 and NumCPU
// workers and at the GOMAXPROCS default. CI runs the
// callers under -race, which also vets the shard pool's sharing
// discipline.
func checkWorkerDeterminism(t *testing.T, est Estimator, p float64, trials int, seed int64) {
	t.Helper()
	for _, c := range Codes() {
		base := c.MonteCarlo(p, trials, seed, MC{Estimator: est, Workers: 1})
		if base.FaultTrials == 0 {
			t.Errorf("%s: no faults at p=%g over %d trials; the test is vacuous", c.Name, p, base.Trials)
		}
		for _, w := range []int{4, runtime.NumCPU(), 0} {
			if got := c.MonteCarlo(p, trials, seed, MC{Estimator: est, Workers: w}); got != base {
				t.Errorf("%s: result differs at %d workers: %+v vs %+v", c.Name, w, got, base)
			}
		}
	}
}

// TestMonteCarloSeededParallelDeterminism pins the naive estimator to the
// worker-count contract over several shards plus a ragged tail, so the
// shard layout itself is exercised.
func TestMonteCarloSeededParallelDeterminism(t *testing.T) {
	checkWorkerDeterminism(t, Naive, 0.02, 3*mcShardTrials+517, 99)
}

// TestMonteCarloSeededSeedSensitivity guards the opposite failure: the
// seed must actually steer the shard streams.
func TestMonteCarloSeededSeedSensitivity(t *testing.T) {
	c := Steane()
	a := c.MonteCarlo(0.05, 2*mcShardTrials, 1, MC{})
	b := c.MonteCarlo(0.05, 2*mcShardTrials, 2, MC{})
	if a == b {
		t.Error("different seeds produced identical Monte Carlo counts")
	}
}

// TestMonteCarloSeededDegenerateBudgets covers the shard-layout edges: a
// zero or negative budget, a sub-shard budget and an exact multiple of the
// shard size.
func TestMonteCarloSeededDegenerateBudgets(t *testing.T) {
	if r := (MonteCarloResult{}); r.LogicalRate != 0 || !math.IsInf(r.RelCI(), 1) || r.Resolved(1) {
		t.Errorf("zero-trial result %+v should read as unresolved rate 0", r)
	}
	c := BaconShor()
	for _, trials := range []int{0, -5} {
		if got := c.MonteCarlo(0.1, trials, 5, MC{}); got.FaultTrials != 0 || got.Trials != 0 || got.LogicalRate != 0 {
			t.Errorf("budget %d: %+v", trials, got)
		}
	}
	for _, trials := range []int{1, 37, mcShardTrials, 2 * mcShardTrials} {
		a := c.MonteCarlo(0.1, trials, 7, MC{Workers: 1})
		b := c.MonteCarlo(0.1, trials, 7, MC{Workers: 3})
		if a != b {
			t.Errorf("trials=%d: counts differ across worker counts: %+v vs %+v", trials, a, b)
		}
		if a.Trials != trials {
			t.Errorf("trials=%d: result echoes %d", trials, a.Trials)
		}
	}
}

// TestMonteCarloUnknownEstimatorPanics pins the loud failure for an
// estimator value outside the enumeration.
func TestMonteCarloUnknownEstimatorPanics(t *testing.T) {
	mustPanic(t, "MonteCarlo(estimator 9)", func() { Steane().MonteCarlo(0.1, 10, 1, MC{Estimator: 9}) })
}

// TestNaiveCountsMatchFloat64Reference pins the naive estimator's fault
// counts to the loop it replaced: per shard a rand.New stream seeded with
// shardSeed, one rand.Float64() < p per qubit, then the table decode. It
// covers both codes, the montecarlo sweep's six rates plus a
// high one, several shards with a ragged tail, and two worker counts.
func TestNaiveCountsMatchFloat64Reference(t *testing.T) {
	const trials, seed = 3*mcShardTrials + 517, 29
	for _, c := range Codes() {
		for _, p := range []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.3} {
			want := 0
			for s := 0; s*mcShardTrials < trials; s++ {
				rng := rand.New(rand.NewSource(shardSeed(seed, s)))
				for range min(mcShardTrials, trials-s*mcShardTrials) {
					var e uint64
					for q := 0; q < c.N; q++ {
						if rng.Float64() < p {
							e |= 1 << uint(q)
						}
					}
					if c.bitX.fault(e) {
						want++
					}
				}
			}
			for _, w := range []int{1, 4} {
				got := c.MonteCarlo(p, trials, seed, MC{Workers: w})
				if got.FaultTrials != want {
					t.Errorf("%s p=%g workers=%d: %d faulted trials, the Float64 reference counts %d", c.Name, p, w, got.FaultTrials, want)
				}
			}
		}
	}
}

// mustPanic runs f and reports whether it panicked.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
