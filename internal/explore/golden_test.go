package explore_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/phys"
	"repro/internal/sched"
)

// TestTable4Golden routes the Table 4 experiment through the engine and
// demands exact (bitwise) agreement with the hand-coded serial oracle
// table4 — the engine must be a faithful re-plumbing, not an
// approximation. The engine's product order is size x budget x code with
// code fastest, so each table4Row corresponds to two consecutive points.
func TestTable4Golden(t *testing.T) {
	pts := sweepPoints(t, "table4")
	rows := table4(phys.Projected())
	if len(pts) != 2*len(rows) {
		t.Fatalf("engine produced %d points for %d table rows", len(pts), len(rows))
	}
	for i, row := range rows {
		st, bs := pts[2*i], pts[2*i+1]
		for _, pt := range []explore.Point{st, bs} {
			if got := pt.Coords[0].Int(); got != row.InputSize {
				t.Fatalf("row %d: engine point has size %d, want %d", i, got, row.InputSize)
			}
			if got := int(pt.MustMetric("blocks")); got != row.Blocks {
				t.Fatalf("row %d: engine point has %d blocks, want %d", i, got, row.Blocks)
			}
		}
		if st.Coords[2].Str() != "steane" || bs.Coords[2].Str() != "bacon-shor" {
			t.Fatalf("row %d: unexpected code order %q, %q", i, st.Coords[2].Str(), bs.Coords[2].Str())
		}
		check := func(name string, got, want float64) {
			if got != want {
				t.Errorf("row %d (n=%d k=%d): %s = %v, want exactly %v",
					i, row.InputSize, row.Blocks, name, got, want)
			}
		}
		check("steane area", st.MustMetric("area_reduction"), row.AreaReducedSteane)
		check("steane speedup", st.MustMetric("speedup"), row.SpeedupSteane)
		check("steane gain", st.MustMetric("gain_product"), row.GainProductSteane)
		check("bacon-shor area", bs.MustMetric("area_reduction"), row.AreaReducedBS)
		check("bacon-shor speedup", bs.MustMetric("speedup"), row.SpeedupBS)
		check("bacon-shor gain", bs.MustMetric("gain_product"), row.GainProductBS)
	}
}

// TestTable5Golden routes the Table 5 experiment through the engine (and
// therefore through arch's analytic engine) and demands exact agreement
// with the hand-coded serial oracle table5. The experiment's product
// order — code x transfers x size, size fastest — matches the row order of
// the hand-coded loop, so points and rows correspond one to one.
func TestTable5Golden(t *testing.T) {
	pts := sweepPoints(t, "table5")
	rows := table5(phys.Projected())
	if len(pts) != len(rows) {
		t.Fatalf("engine produced %d points for %d table rows", len(pts), len(rows))
	}
	for i, row := range rows {
		pt := pts[i]
		if got := pt.Coords[1].Int(); got != row.ParallelTransfers {
			t.Fatalf("row %d: engine point has %d transfers, want %d", i, got, row.ParallelTransfers)
		}
		if got := pt.Coords[2].Int(); got != row.AdderSize {
			t.Fatalf("row %d: engine point has size %d, want %d", i, got, row.AdderSize)
		}
		check := func(name string, got, want float64) {
			if got != want {
				t.Errorf("row %d (%s xfer=%d n=%d): %s = %v, want exactly %v",
					i, row.Code, row.ParallelTransfers, row.AdderSize, name, got, want)
			}
		}
		check("l1_speedup", pt.MustMetric("l1_speedup"), row.L1Speedup)
		check("l2_speedup", pt.MustMetric("l2_speedup"), row.L2Speedup)
		check("adder_speedup", pt.MustMetric("adder_speedup"), row.AdderSpeedup)
		check("area_reduction", pt.MustMetric("area_reduction"), row.AreaReduced)
		check("gain_product", pt.MustMetric("gain_product"), row.GainProduct)
	}
}

// TestFig7Golden pins the cache-hit-rate sweep to the hand-coded fig7
// oracle, exactly.
func TestFig7Golden(t *testing.T) {
	pts := sweepPoints(t, "fig7")
	rows := fig7(phys.Projected())
	if len(pts) != len(rows) {
		t.Fatalf("engine produced %d points for %d figure rows", len(pts), len(rows))
	}
	for i, row := range rows {
		pt := pts[i]
		if got := pt.Coords[0].Int(); got != row.AdderSize {
			t.Fatalf("row %d: engine point has size %d, want %d", i, got, row.AdderSize)
		}
		if got := int(pt.MustMetric("cache_qubits")); got != row.CacheSize {
			t.Errorf("row %d: cache_qubits = %d, want %d", i, got, row.CacheSize)
		}
		if got := pt.MustMetric("naive_hit"); got != row.NaiveRate {
			t.Errorf("row %d: naive_hit = %v, want exactly %v", i, got, row.NaiveRate)
		}
		if got := pt.MustMetric("optimized_hit"); got != row.OptimRate {
			t.Errorf("row %d: optimized_hit = %v, want exactly %v", i, got, row.OptimRate)
		}
	}
}

// TestEngineAxisDES runs the acceptance path: table4, table5 and the new
// xval sweep all evaluate with -engine des and come back with populated
// simulation metrics.
func TestEngineAxisDES(t *testing.T) {
	if testing.Short() {
		t.Skip("discrete-event sweeps are expensive")
	}
	p := phys.Projected()
	cases := []struct {
		sweep  string
		metric string // a simulation-only metric that must be present and positive
	}{
		{"table4", "makespan_s"},
		{"table5", "makespan_s"},
		{"xval", "des_makespan_s"},
	}
	for _, c := range cases {
		exp, err := explore.Lookup(c.sweep)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := explore.Run(context.Background(), exp, explore.Options{Phys: p, Seed: 1, Engine: "des"})
		if err != nil {
			t.Fatalf("%s -engine des: %v", c.sweep, err)
		}
		if len(pts) != exp.Size() {
			t.Fatalf("%s: %d points, want %d", c.sweep, len(pts), exp.Size())
		}
		for _, pt := range pts {
			v, err := pt.Metric(c.metric)
			if err != nil {
				t.Fatalf("%s point %d: %v (metrics %v)", c.sweep, pt.Index, err, pt.Metrics)
			}
			if v <= 0 {
				t.Errorf("%s point %d: %s = %g, want > 0", c.sweep, pt.Index, c.metric, v)
			}
		}
	}
	// The engine axis must reject unknown names before evaluating.
	exp, _ := explore.Lookup("table4")
	if _, err := explore.Run(context.Background(), exp, explore.Options{Phys: p, Engine: "abacus"}); err == nil {
		t.Error("unknown engine should fail the run")
	}
}

// TestParetoFrontierMarks sanity-checks the cross-point Post hook: at
// least one point is on the frontier, the best gain product is on it, and
// no frontier point is dominated.
func TestParetoFrontierMarks(t *testing.T) {
	if testing.Short() {
		t.Skip("pareto sweep is expensive")
	}
	exp, err := explore.Lookup("pareto")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := explore.Run(context.Background(), exp, explore.Options{Phys: phys.Projected(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	frontier := 0
	bestGain, bestOn := 0.0, false
	for _, pt := range pts {
		on := pt.MustMetric("on_frontier") == 1
		if on {
			frontier++
		}
		if g := pt.MustMetric("gain_product"); g > bestGain {
			bestGain, bestOn = g, on
		}
	}
	if frontier == 0 {
		t.Fatal("no point marked on the Pareto frontier")
	}
	if !bestOn {
		t.Error("the best-gain-product point is not on the frontier")
	}
	for _, pt := range pts {
		if pt.MustMetric("on_frontier") != 1 {
			continue
		}
		for _, other := range pts {
			if other.MustMetric("area_reduction") > pt.MustMetric("area_reduction") &&
				other.MustMetric("adder_speedup") > pt.MustMetric("adder_speedup") {
				t.Fatalf("frontier point %d is dominated by point %d", pt.Index, other.Index)
			}
		}
	}
}

// The oracles below are the hand-coded serial computations of Table 4,
// Table 5 and Figure 7, written directly against the cqla machine model
// and the cache simulator with no explore or arch code in between. They
// exist only to pin the registered sweeps bit for bit.

// table4Row is one row of Table 4: CQLA vs QLA for modular exponentiation
// at one (input size, compute blocks) point, for both codes.
type table4Row struct {
	InputSize, Blocks                int
	AreaReducedSteane, AreaReducedBS float64
	SpeedupSteane, SpeedupBS         float64
	GainProductSteane, GainProductBS float64
}

// oracleMachine builds the oracles' machines with every field spelled out
// (Section 5.2's cache factor 2 and transfer overlap 0.9), so the goldens
// do not depend on arch's defaults.
func oracleMachine(code *ecc.Code, p phys.Params, blocks, transfers int) *cqla.Machine {
	m, err := cqla.NewMachine(cqla.Config{
		Code:              code,
		Params:            p,
		ComputeBlocks:     blocks,
		ParallelTransfers: transfers,
		CacheFactor:       2,
		TransferOverlap:   0.9,
	})
	if err != nil {
		panic(err)
	}
	return m
}

// table4 reproduces Table 4: the specialization study without the memory
// hierarchy.
func table4(p phys.Params) []table4Row {
	var rows []table4Row
	blockTable := cqla.PaperBlockCounts()
	st, bs := ecc.Steane(), ecc.BaconShor()
	for _, n := range cqla.PaperInputSizes() {
		q := gen.NewModExp(n).LogicalQubits()
		adder := cqla.AdderKernel(n)
		for _, k := range blockTable[n] {
			mSt := oracleMachine(st, p, k, 10)
			mBS := oracleMachine(bs, p, k, 10)
			row := table4Row{
				InputSize:         n,
				Blocks:            k,
				AreaReducedSteane: mSt.AreaReduction(q, false),
				AreaReducedBS:     mBS.AreaReduction(q, false),
				SpeedupSteane:     mSt.SpeedupL2(adder),
				SpeedupBS:         mBS.SpeedupL2(adder),
			}
			row.GainProductSteane = row.AreaReducedSteane * row.SpeedupSteane
			row.GainProductBS = row.AreaReducedBS * row.SpeedupBS
			rows = append(rows, row)
		}
	}
	return rows
}

// table5Row is one row of Table 5: the memory-hierarchy study.
type table5Row struct {
	Code              string
	ParallelTransfers int
	AdderSize         int
	L1Speedup         float64
	L2Speedup         float64
	AdderSpeedup      float64
	AreaReduced       float64
	GainProduct       float64
}

// table5 reproduces Table 5: adding the level-1 cache + compute tier with 5
// or 10 parallel memory<->cache transfers.
func table5(p phys.Params) []table5Row {
	var rows []table5Row
	blockTable := cqla.PaperBlockCounts()
	adders := make(map[int]*sched.Plan)
	for _, n := range cqla.Table5Sizes() {
		adders[n] = cqla.AdderKernel(n)
	}
	for _, code := range ecc.Codes() {
		for _, par := range []int{10, 5} {
			for _, n := range cqla.Table5Sizes() {
				k := blockTable[n][0]
				adder := adders[n]
				m := oracleMachine(code, p, k, par)
				q := gen.NewModExp(n).LogicalQubits()
				rows = append(rows, table5Row{
					Code:              code.Short,
					ParallelTransfers: par,
					AdderSize:         n,
					L1Speedup:         m.SpeedupL1(adder),
					L2Speedup:         m.SpeedupL2(adder),
					AdderSpeedup:      m.AdderSpeedup(adder),
					AreaReduced:       m.AreaReduction(q, true),
					GainProduct:       m.GainProduct(adder, q, true),
				})
			}
		}
	}
	return rows
}

// figure7Row is one bar group of Figure 7: hit rates for one adder size.
type figure7Row struct {
	AdderSize  int
	CacheSize  int
	Multiplier float64 // cache size as a multiple of the compute region
	NaiveRate  float64
	OptimRate  float64
}

// fig7 reproduces Figure 7: cache hit rates for naive and optimized
// instruction fetch at cache sizes {1, 1.5, 2} x the compute-region qubits.
func fig7(p phys.Params) []figure7Row {
	var rows []figure7Row
	blockTable := cqla.PaperBlockCounts()
	for _, n := range cqla.Fig7Sizes() {
		ad := gen.CarryLookahead(n)
		pe := blockTable[n][0] * cqla.BlockDataQubits
		for _, mult := range []float64{1, 1.5, 2} {
			capQ := int(mult * float64(pe))
			naive := cache.Simulate(ad.Circuit, cache.Config{CacheQubits: capQ, Policy: cache.Naive})
			opt := cache.Simulate(ad.Circuit, cache.Config{CacheQubits: capQ, Policy: cache.Optimized})
			rows = append(rows, figure7Row{
				AdderSize:  n,
				CacheSize:  capQ,
				Multiplier: mult,
				NaiveRate:  naive.HitRate(),
				OptimRate:  opt.HitRate(),
			})
		}
	}
	return rows
}
