package ecc

import (
	"math"
	"runtime"
	"testing"
)

// rare runs the Rare estimator with a trial budget.
func rare(c *Code, p float64, budget int, seed int64, workers int) MonteCarloResult {
	return c.MonteCarlo(p, budget, seed, MC{Estimator: Rare, Workers: workers})
}

// TestRareParallelDeterminism extends the worker-count contract to the
// importance-sampled estimator: the full result — estimate, standard error
// and bound included — must be identical because every float is computed
// once from the merged integer histogram.
func TestRareParallelDeterminism(t *testing.T) {
	checkWorkerDeterminism(t, Rare, 1e-4, 3*mcShardTrials+517, 99)
	// Past the first grant, so the multi-grant path is covered too.
	checkWorkerDeterminism(t, Rare, 3e-3, 4*mcRareChunk, 5)
}

// TestRareUntiltedMatchesBatch pins the estimator's p == q degenerate case:
// at a rate above the tilt floor the rare estimator samples untilted from
// point 0's block streams, so its raw fault count must equal the batch
// engine's on the same stream seed and trial count exactly, and its
// estimate must be the plain fault fraction.
func TestRareUntiltedMatchesBatch(t *testing.T) {
	const (
		p      = 0.05
		trials = 2*mcShardTrials + 91
		seed   = 17
	)
	for _, c := range Codes() {
		r := rare(c, p, trials, seed, 0)
		if r.TiltRate != p {
			t.Errorf("%s: tilt %g for p=%g above the floor", c.Name, r.TiltRate, p)
		}
		if r.Trials != trials/mcBatchLanes*mcBatchLanes {
			t.Errorf("%s: spent %d trials of %d; grants are whole blocks", c.Name, r.Trials, trials)
		}
		b := c.MonteCarlo(p, r.Trials, shardSeed(seed, 0), MC{Estimator: BitSliced})
		if r.FaultTrials != b.FaultTrials {
			t.Errorf("%s: untilted rare saw %d faults, batch saw %d", c.Name, r.FaultTrials, b.FaultTrials)
		}
		if r.LogicalRate != b.LogicalRate {
			t.Errorf("%s: untilted rare estimate %g, batch rate %g", c.Name, r.LogicalRate, b.LogicalRate)
		}
	}
}

// TestRareUnbiasedAgainstNaive is the statistical heart of the estimator:
// at a physical rate the naive estimator can resolve, the tilted
// importance-sampled estimate must agree with the naive estimate within
// combined counting error. p = 0.01 sits below the tilt floor, so the rare
// estimator genuinely samples at q = 0.02 and reweights.
func TestRareUnbiasedAgainstNaive(t *testing.T) {
	const (
		p      = 0.01
		trials = 400000
		seed   = 8
	)
	for _, c := range Codes() {
		naive := c.MonteCarlo(p, trials, seed, MC{Estimator: BitSliced})
		r := rare(c, p, trials, seed+1, 0) // independent streams
		if r.TiltRate != mcTiltRate {
			t.Fatalf("%s: expected tilted sampling at %g, got %g", c.Name, mcTiltRate, r.TiltRate)
		}
		se := math.Hypot(naive.StdErr, r.StdErr)
		if diff := math.Abs(naive.LogicalRate - r.LogicalRate); diff > 6*se {
			t.Errorf("%s: naive %g vs importance-sampled %g differ by %.1f combined standard errors",
				c.Name, naive.LogicalRate, r.LogicalRate, diff/se)
		}
		if !r.Resolved(TargetRelCI) {
			t.Errorf("%s: rare estimator unresolved at p=%g over %d trials: relCI=%g",
				c.Name, p, r.Trials, r.RelCI())
		}
	}
}

// TestRareResolvesDeepPoints is the acceptance criterion of the rare-event
// estimator: at p = 1e-5 — where the naive estimator would need ~10^11
// trials — it must deliver a relative CI of at most 10% well inside a
// 1M-trial budget.
func TestRareResolvesDeepPoints(t *testing.T) {
	for _, c := range Codes() {
		r := rare(c, 1e-5, 1000000, 42, 0)
		if !r.Resolved(TargetRelCI) {
			t.Fatalf("%s: p=1e-5 unresolved after %d trials: relCI=%g", c.Name, r.Trials, r.RelCI())
		}
		if r.Trials >= 1000000 {
			t.Errorf("%s: early stopping never kicked in (%d trials)", c.Name, r.Trials)
		}
		// The estimate must sit in the physically sensible range: below the
		// physical rate (error correction helps at 1e-5) and above zero.
		if r.LogicalRate <= 0 || r.LogicalRate >= 1e-5 {
			t.Errorf("%s: implausible logical rate %g at p=1e-5", c.Name, r.LogicalRate)
		}
	}
}

// TestAdaptiveAllocation exercises the early-stop loop: grants are whole
// 64-trial blocks in chunks of mcRareChunk, the loop stops at the first
// resolved grant (one chunk less leaves the estimate unresolved), the
// result is a prefix of the same block sequence a larger budget would
// draw, and none of it depends on the worker count.
func TestAdaptiveAllocation(t *testing.T) {
	c := Steane()
	const budget = 1000000
	for _, p := range []float64{3e-3, 1e-4, 1e-5} {
		r := rare(c, p, budget, 7, 1)
		if !r.Resolved(TargetRelCI) {
			t.Errorf("p=%g unresolved: relCI=%g after %d trials", p, r.RelCI(), r.Trials)
		}
		if r.Trials%mcRareChunk != 0 || r.Trials >= budget {
			t.Errorf("p=%g: stopped after %d trials, want a multiple of %d below the budget", p, r.Trials, mcRareChunk)
		}
		if r.Trials > mcRareChunk {
			if prev := rare(c, p, r.Trials-mcRareChunk, 7, 1); prev.Resolved(TargetRelCI) {
				t.Errorf("p=%g: already resolved after %d trials, yet the loop spent %d", p, prev.Trials, r.Trials)
			}
		}
		// A budget that ends exactly at the stopping point draws the same
		// blocks and so returns the same result.
		if got := rare(c, p, r.Trials, 7, 1); got != r {
			t.Errorf("p=%g: budget %d gives %+v, want the early-stopped %+v", p, r.Trials, got, r)
		}
		for _, w := range []int{4, runtime.NumCPU()} {
			if got := rare(c, p, budget, 7, w); got != r {
				t.Errorf("p=%g workers=%d: %+v vs %+v", p, w, got, r)
			}
		}
	}
}

// TestAdaptiveDegenerateInputs covers the loop's edges: zero and sub-block
// budgets spend nothing, a budget that is not a block multiple is rounded
// down to whole blocks, and a seed change steers the stream.
func TestAdaptiveDegenerateInputs(t *testing.T) {
	c := BaconShor()
	for _, budget := range []int{-1, 0, 63} {
		r := rare(c, 1e-3, budget, 1, 0)
		if r.Trials != 0 || r.FaultTrials != 0 || r.LogicalRate != 0 {
			t.Errorf("budget %d: spent %+v", budget, r)
		}
	}
	if got := rare(c, 1e-3, mcRareChunk+100, 1, 0).Trials; got%mcBatchLanes != 0 || got > mcRareChunk+100 {
		t.Errorf("budget %d: spent %d trials, want whole blocks within the budget", mcRareChunk+100, got)
	}
	a := rare(c, 1e-4, 1<<17, 1, 0)
	b := rare(c, 1e-4, 1<<17, 2, 0)
	if a.FaultTrials == b.FaultTrials && a.LogicalRate == b.LogicalRate {
		t.Error("different seeds produced identical rare-event results")
	}
}

// TestRareHistKernelAllocationFree pins the importance-sampling path to the
// same steady-state contract as the plain batch path at one worker.
func TestRareHistKernelAllocationFree(t *testing.T) {
	for _, c := range Codes() {
		if avg := testing.AllocsPerRun(50, func() {
			rare(c, 1e-4, 4096, 21, 1)
		}); avg != 0 {
			t.Errorf("%s: rare Monte Carlo allocates %.1f times per run, want 0", c.Name, avg)
		}
	}
}
