// Package repro_bench is the benchmark harness: one testing.B benchmark per
// table and figure of the CQLA paper, plus ablation benches for the design
// choices called out in DESIGN.md. Each benchmark regenerates its artifact
// end to end and reports domain metrics (gain products, speedups, hit
// rates) through b.ReportMetric so `go test -bench=. -benchmem` prints the
// reproduced rows alongside timing.
package repro_bench

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/mesh"
	"repro/internal/phys"
	"repro/internal/sched"
	"repro/internal/transfer"
)

// BenchmarkTable1Params regenerates the physical-parameter table.
func BenchmarkTable1Params(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		p := phys.Projected()
		avg = p.AverageFailure()
	}
	b.ReportMetric(avg*1e9, "p0-failure-1e-9")
}

// BenchmarkTable2ECMetrics regenerates the error-correction metric summary.
func BenchmarkTable2ECMetrics(b *testing.B) {
	p := phys.Projected()
	var rows []ecc.Metrics
	for i := 0; i < b.N; i++ {
		rows = cqla.Table2Rows(p)
	}
	b.ReportMetric(rows[1].ECTime.Seconds(), "steane-L2-EC-s")
	b.ReportMetric(rows[3].ECTime.Seconds(), "bs-L2-EC-s")
}

// BenchmarkTable3Transfer regenerates the code-transfer latency matrix.
func BenchmarkTable3Transfer(b *testing.B) {
	var rt float64
	for i := 0; i < b.N; i++ {
		_, m := cqla.Table3Matrix()
		rt = (m[1][0] + m[0][1]).Seconds()
	}
	b.ReportMetric(rt, "steane-roundtrip-s")
}

// BenchmarkTable4Specialization regenerates the full specialization study:
// every input size and block budget, both codes.
func BenchmarkTable4Specialization(b *testing.B) {
	p := phys.Projected()
	var rows []cqla.Table4Row
	for i := 0; i < b.N; i++ {
		rows = cqla.Table4(p)
	}
	last := rows[len(rows)-2] // 1024-bit at 100 blocks
	b.ReportMetric(last.AreaReducedBS, "bs-area-factor-1024")
	b.ReportMetric(last.SpeedupBS, "bs-speedup-1024")
	b.ReportMetric(last.GainProductBS, "bs-gain-1024")
}

// BenchmarkTable5Hierarchy regenerates the memory-hierarchy study.
func BenchmarkTable5Hierarchy(b *testing.B) {
	p := phys.Projected()
	var rows []cqla.Table5Row
	for i := 0; i < b.N; i++ {
		rows = cqla.Table5(p)
	}
	var best cqla.Table5Row
	for _, r := range rows {
		if r.GainProduct > best.GainProduct {
			best = r
		}
	}
	b.ReportMetric(best.GainProduct, "best-gain-product")
	b.ReportMetric(best.AdderSpeedup, "best-adder-speedup")
}

// BenchmarkFig2Parallelism regenerates the 64-qubit adder profile.
func BenchmarkFig2Parallelism(b *testing.B) {
	var f cqla.Figure2
	for i := 0; i < b.N; i++ {
		f = cqla.Fig2(64, 15)
	}
	b.ReportMetric(float64(f.LimitedSlots)/float64(f.UnlimitedSlots), "slowdown-at-15-blocks")
}

// BenchmarkFig6aUtilization regenerates the utilization curves.
func BenchmarkFig6aUtilization(b *testing.B) {
	var curves []cqla.Figure6a
	for i := 0; i < b.N; i++ {
		curves = cqla.Fig6a()
	}
	last := curves[len(curves)-1]
	b.ReportMetric(last.Utilizations[0], "util-1024bit-4blocks")
	b.ReportMetric(last.Utilizations[len(last.Utilizations)-1], "util-1024bit-196blocks")
}

// BenchmarkFig6bBandwidth regenerates the superblock bandwidth balance.
func BenchmarkFig6bBandwidth(b *testing.B) {
	var f cqla.Figure6b
	for i := 0; i < b.N; i++ {
		f = cqla.Fig6b()
	}
	b.ReportMetric(float64(f.Crossover), "crossover-blocks")
}

// BenchmarkFig7Cache regenerates the cache hit-rate study.
func BenchmarkFig7Cache(b *testing.B) {
	p := phys.Projected()
	var rows []cqla.Figure7Row
	for i := 0; i < b.N; i++ {
		rows = cqla.Fig7(p)
	}
	b.ReportMetric(100*rows[0].NaiveRate, "naive-hit-pct")
	b.ReportMetric(100*rows[0].OptimRate, "optimized-hit-pct")
}

// BenchmarkFig8aModExp regenerates the modular-exponentiation time split.
func BenchmarkFig8aModExp(b *testing.B) {
	p := phys.Projected()
	var pts []cqla.AppTimes
	for i := 0; i < b.N; i++ {
		pts = cqla.Fig8a(p)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Computation.Hours(), "comp-hours-1024")
	b.ReportMetric(last.Communication.Hours(), "comm-hours-1024")
}

// BenchmarkFig8bQFT regenerates the QFT time split.
func BenchmarkFig8bQFT(b *testing.B) {
	p := phys.Projected()
	var pts []cqla.AppTimes
	for i := 0; i < b.N; i++ {
		pts = cqla.Fig8b(p)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Computation.Seconds(), "comp-s-1000")
	b.ReportMetric(last.Communication.Seconds(), "comm-s-1000")
}

// --- Ablations (design choices called out in DESIGN.md) ------------------

// BenchmarkAblationCodeChoice compares Steane vs Bacon-Shor as the CQLA's
// region code at the 256-bit working point.
func BenchmarkAblationCodeChoice(b *testing.B) {
	p := phys.Projected()
	q := 5*256 + 3
	var gpSt, gpBS float64
	for i := 0; i < b.N; i++ {
		adder := cqla.AdderKernel(256)
		st := cqla.New(cqla.Config{Code: ecc.Steane(), Params: p, ComputeBlocks: 36, ParallelTransfers: 10})
		bs := cqla.New(cqla.Config{Code: ecc.BaconShor(), Params: p, ComputeBlocks: 36, ParallelTransfers: 10})
		gpSt = st.GainProduct(adder, q, true)
		gpBS = bs.GainProduct(adder, q, true)
	}
	b.ReportMetric(gpSt, "gain-steane")
	b.ReportMetric(gpBS, "gain-bacon-shor")
}

// BenchmarkAblationFetchPolicy compares naive and optimized instruction
// fetch on the 256-bit adder.
func BenchmarkAblationFetchPolicy(b *testing.B) {
	ad := gen.CarryLookahead(256)
	var naive, opt float64
	for i := 0; i < b.N; i++ {
		naive = cache.Simulate(ad.Circuit, cache.Config{CacheQubits: 648, Policy: cache.Naive}).HitRate()
		opt = cache.Simulate(ad.Circuit, cache.Config{CacheQubits: 648, Policy: cache.Optimized}).HitRate()
	}
	b.ReportMetric(100*naive, "naive-hit-pct")
	b.ReportMetric(100*opt, "optimized-hit-pct")
}

// BenchmarkAblationAdderChoice compares the carry-lookahead and
// ripple-carry adders under the same 15-block budget.
func BenchmarkAblationAdderChoice(b *testing.B) {
	var claSlots, ripSlots int
	for i := 0; i < b.N; i++ {
		cla := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
		rip := circuit.BuildDAG(gen.RippleCarry(64).Circuit)
		claSlots = sched.ListSchedule(cla, 15).MakespanSlots
		ripSlots = sched.ListSchedule(rip, 15).MakespanSlots
	}
	b.ReportMetric(float64(claSlots), "cla-slots")
	b.ReportMetric(float64(ripSlots), "ripple-slots")
}

// BenchmarkAblationSuperblock sweeps superblock sizes around the bandwidth
// crossover.
func BenchmarkAblationSuperblock(b *testing.B) {
	sb := mesh.DefaultSuperblock()
	var margin16, margin64 float64
	for i := 0; i < b.N; i++ {
		margin16 = sb.Available(16) - sb.RequiredDraper(16)
		margin64 = sb.Available(64) - sb.RequiredDraper(64)
	}
	b.ReportMetric(margin16, "margin-16-blocks")
	b.ReportMetric(margin64, "margin-64-blocks")
}

// BenchmarkAblationLevelMix sweeps the L1:L2 addition mix around the
// paper's 1:2 policy.
func BenchmarkAblationLevelMix(b *testing.B) {
	p := phys.Projected()
	m := cqla.New(cqla.Config{Code: ecc.BaconShor(), Params: p, ComputeBlocks: 36, ParallelTransfers: 10})
	adder := cqla.AdderKernel(256)
	var pure2, mix12, mix11 float64
	for i := 0; i < b.N; i++ {
		s2 := m.SpeedupL2(adder)
		s1 := m.SpeedupL1(adder)
		pure2 = s2
		mix12 = (2*s2 + s1) / 3
		mix11 = (s2 + s1) / 2
	}
	b.ReportMetric(pure2, "speedup-pure-L2")
	b.ReportMetric(mix12, "speedup-1:2-mix")
	b.ReportMetric(mix11, "speedup-1:1-mix")
}

// BenchmarkAblationTransferWidth sweeps the memory<->cache transfer-network
// width.
func BenchmarkAblationTransferWidth(b *testing.B) {
	p := phys.Projected()
	var s5, s10, s20 float64
	for i := 0; i < b.N; i++ {
		adder := cqla.AdderKernel(256)
		for _, par := range []int{5, 10, 20} {
			m := cqla.New(cqla.Config{Code: ecc.BaconShor(), Params: p, ComputeBlocks: 36, ParallelTransfers: par})
			s := m.SpeedupL1(adder)
			switch par {
			case 5:
				s5 = s
			case 10:
				s10 = s
			case 20:
				s20 = s
			}
		}
	}
	b.ReportMetric(s5, "L1-speedup-xfer5")
	b.ReportMetric(s10, "L1-speedup-xfer10")
	b.ReportMetric(s20, "L1-speedup-xfer20")
}

// BenchmarkEndToEndPipeline measures the full pipeline on one working
// point: generate the adder, schedule it, size the machine and report its
// figures of merit.
func BenchmarkEndToEndPipeline(b *testing.B) {
	p := phys.Projected()
	var gp float64
	for i := 0; i < b.N; i++ {
		m := cqla.New(cqla.Config{Code: ecc.BaconShor(), Params: p, ComputeBlocks: 36, ParallelTransfers: 10})
		gp = m.GainProduct(cqla.AdderKernel(256), 5*256+3, true)
	}
	b.ReportMetric(gp, "gain-product")
}

// --- Design-space exploration engine -------------------------------------

// benchExplore runs the multi-axis pareto sweep (blocks x cache factor,
// 45 points of full 256-bit machine evaluations) through the explore
// worker pool at a fixed worker count.
func benchExplore(b *testing.B, parallel int) {
	exp, err := explore.Lookup("pareto")
	if err != nil {
		b.Fatal(err)
	}
	p := phys.Projected()
	var pts []explore.Point
	for i := 0; i < b.N; i++ {
		pts, err = explore.Run(context.Background(), exp, explore.Options{Phys: p, Parallel: parallel, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, pt := range pts {
		if g := pt.MustMetric("gain_product"); g > best {
			best = g
		}
	}
	b.ReportMetric(best, "best-gain-product")
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkExploreSerial is the single-worker baseline for the engine.
func BenchmarkExploreSerial(b *testing.B) { benchExplore(b, 1) }

// BenchmarkExploreParallel fans the same sweep across GOMAXPROCS workers;
// compare against BenchmarkExploreSerial for the engine's parallel
// speedup (near-linear until the point count stops covering the workers).
func BenchmarkExploreParallel(b *testing.B) { benchExplore(b, 0) }

// --- Hot paths under the CI regression gate ------------------------------
//
// BenchmarkConcatenatedMCLevel2 (internal/ecc) and BenchmarkDES64BitAdder
// (internal/des) are also pinned in the gate; they live next to the code
// they measure.

// BenchmarkMonteCarloXSeeded is a pinned gate benchmark: the seeded,
// sharded Monte Carlo path the montecarlo sweep runs, across the worker
// pool (throughput scales with cores; counts do not change).
func BenchmarkMonteCarloXSeeded(b *testing.B) {
	c := ecc.Steane()
	var r ecc.MonteCarloResult
	for i := 0; i < b.N; i++ {
		r = c.MonteCarlo(1e-3, 20000, 42, ecc.MC{})
	}
	b.ReportMetric(float64(r.FaultTrials), "faults")
}

// BenchmarkMonteCarloBitSliced is a pinned gate benchmark: the transposed
// 64-trials-per-decode Monte Carlo engine on the same workload as the
// scalar BenchmarkMonteCarloXSeeded path (one worker, 20000 trials, seed
// 42), so the ratio of the two rows is the bit-slicing speedup.
func BenchmarkMonteCarloBitSliced(b *testing.B) {
	c := ecc.Steane()
	var r ecc.MonteCarloResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r = c.MonteCarlo(1e-3, 20000, 42, ecc.MC{Estimator: ecc.BitSliced, Workers: 1})
	}
	b.ReportMetric(float64(r.FaultTrials), "faults")
}

// BenchmarkMonteCarloRareEvent is a pinned gate benchmark: the
// importance-sampled estimator in the deep sub-threshold regime where the
// naive estimator observes nothing.
func BenchmarkMonteCarloRareEvent(b *testing.B) {
	c := ecc.Steane()
	var r ecc.MonteCarloResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r = c.MonteCarlo(1e-4, 20000, 42, ecc.MC{Estimator: ecc.Rare, Workers: 1})
	}
	b.ReportMetric(float64(r.FaultTrials), "fault-trials")
}

// BenchmarkTransferBatch measures the transfer-network batch model.
func BenchmarkTransferBatch(b *testing.B) {
	nw := transfer.NewNetwork(10)
	from := transfer.Encoding{Code: "[[9,1,3]]", Level: 2}
	to := transfer.Encoding{Code: "[[9,1,3]]", Level: 1}
	for i := 0; i < b.N; i++ {
		nw.BatchTime(648, from, to)
	}
}
