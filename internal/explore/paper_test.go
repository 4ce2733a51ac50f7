package explore_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cqla"
	"repro/internal/explore"
	"repro/internal/memo"
	"repro/internal/phys"
)

// The paper's claims, asserted on the points of the registered sweep that
// produces each table and figure: the same points `cqla <name>`,
// `cqla sweep` and `cqla serve` emit. Each sweep runs once per test
// binary, and the exact goldens in golden_test.go read the same runs.

// paperRuns memoizes one run per sweep name.
var paperRuns memo.Map[string, []explore.Point]

// sweepPoints returns the points of the named registered sweep on the
// projected parameters at seed 1, running it on first use. Callers share
// the slice and must not modify it.
func sweepPoints(t *testing.T, name string) []explore.Point {
	t.Helper()
	pts, err := paperRuns.Do(name, func() ([]explore.Point, error) {
		exp, err := explore.Lookup(name)
		if err != nil {
			return nil, err
		}
		return explore.Run(context.Background(), exp, explore.Options{Phys: phys.Projected(), Seed: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// sweepIndex returns a lookup of the named sweep's points by coordinates,
// given in axis order. A coordinate with no point fails the test.
func sweepIndex(t *testing.T, name string) func(coords ...any) explore.Point {
	t.Helper()
	key := func(vs []string) string { return strings.Join(vs, "/") }
	idx := map[string]explore.Point{}
	for _, pt := range sweepPoints(t, name) {
		vs := make([]string, len(pt.Coords))
		for i, c := range pt.Coords {
			vs[i] = c.String()
		}
		idx[key(vs)] = pt
	}
	return func(coords ...any) explore.Point {
		t.Helper()
		vs := make([]string, len(coords))
		for i, c := range coords {
			vs[i] = fmt.Sprint(c)
		}
		pt, ok := idx[key(vs)]
		if !ok {
			t.Fatalf("%s has no point at %v", name, coords)
		}
		return pt
	}
}

func TestTable2RowsComplete(t *testing.T) {
	if n := len(sweepPoints(t, "table2")); n != 4 {
		t.Fatalf("table2 has %d points, want 4", n)
	}
	at := sweepIndex(t, "table2")
	for _, code := range []string{"steane", "bacon-shor"} {
		for _, level := range []int{1, 2} {
			at(code, level)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	if n := len(sweepPoints(t, "table4")); n != 24 {
		t.Fatalf("table4 has %d points, want 24 (12 rows, two codes each)", n)
	}
	at := sweepIndex(t, "table4")
	for _, n := range cqla.PaperInputSizes() {
		for _, budget := range []string{"lo", "hi"} {
			st, bs := at(n, budget, "steane"), at(n, budget, "bacon-shor")
			if bs.MustMetric("area_reduction") <= st.MustMetric("area_reduction") {
				t.Errorf("n=%d %s: BS area factor should beat Steane", n, budget)
			}
			if s := st.MustMetric("speedup"); s > 1.0001 {
				t.Errorf("n=%d %s: Steane speedup %.2f > 1", n, budget, s)
			}
			if s := bs.MustMetric("speedup"); s < 1 {
				t.Errorf("n=%d %s: BS speedup %.2f < 1", n, budget, s)
			}
			if gp := st.MustMetric("area_reduction") * st.MustMetric("speedup"); math.Abs(gp-st.MustMetric("gain_product")) > 1e-9 {
				t.Errorf("n=%d %s: GP(St) inconsistent", n, budget)
			}
		}
		// Within each size, more blocks trade area for speed.
		lo, hi := at(n, "lo", "steane"), at(n, "hi", "steane")
		if hi.MustMetric("area_reduction") >= lo.MustMetric("area_reduction") {
			t.Errorf("n=%d: more blocks should reduce the area factor", n)
		}
		if hi.MustMetric("speedup") <= lo.MustMetric("speedup") {
			t.Errorf("n=%d: more blocks should raise speedup", n)
		}
	}
	// Gain products grow with problem size (first-block-count rows).
	if at(1024, "lo", "bacon-shor").MustMetric("gain_product") <= at(32, "lo", "bacon-shor").MustMetric("gain_product") {
		t.Error("BS gain product should grow from 32 to 1024 bits")
	}
}

func TestTable5Shape(t *testing.T) {
	if n := len(sweepPoints(t, "table5")); n != 12 {
		t.Fatalf("table5 has %d points, want 12", n)
	}
	at := sweepIndex(t, "table5")
	for _, code := range []string{"steane", "bacon-shor"} {
		for _, par := range []int{10, 5} {
			for _, n := range cqla.Table5Sizes() {
				pt := at(code, par, n)
				if s := pt.MustMetric("adder_speedup"); s < 1 {
					t.Errorf("%s P=%d n=%d: hierarchy should speed up the adder (got %.2f)", code, par, n, s)
				}
				if pt.MustMetric("l1_speedup") <= pt.MustMetric("l2_speedup") {
					t.Errorf("%s n=%d: L1 should be faster than L2", code, n)
				}
				gp := pt.MustMetric("adder_speedup") * pt.MustMetric("area_reduction")
				if math.Abs(gp-pt.MustMetric("gain_product"))/gp > 1e-9 {
					t.Errorf("GP inconsistent for %s n=%d", code, n)
				}
			}
		}
		// Ten parallel transfers beat five.
		for _, n := range cqla.Table5Sizes() {
			if at(code, 10, n).MustMetric("l1_speedup") <= at(code, 5, n).MustMetric("l1_speedup") {
				t.Errorf("%s n=%d: 10 transfers should beat 5", code, n)
			}
		}
	}
	// Bacon-Shor gain products dominate Steane's at equal configuration.
	for _, n := range cqla.Table5Sizes() {
		if at("bacon-shor", 10, n).MustMetric("gain_product") <= at("steane", 10, n).MustMetric("gain_product") {
			t.Errorf("n=%d: BS gain product should dominate", n)
		}
	}
	// L1 speedup roughly flat in adder size (paper: 17.4 -> 18.2).
	st256 := at("steane", 10, 256).MustMetric("l1_speedup")
	st1024 := at("steane", 10, 1024).MustMetric("l1_speedup")
	if st1024 < 0.6*st256 || st1024 > 1.4*st256 {
		t.Errorf("Steane L1 speedup drifts with size: %.1f vs %.1f", st256, st1024)
	}
	// GP grows with size for fixed code and transfers.
	if at("bacon-shor", 10, 1024).MustMetric("gain_product") <= at("bacon-shor", 10, 256).MustMetric("gain_product") {
		t.Error("BS GP should grow with size")
	}
}

func TestFig6aShape(t *testing.T) {
	counts := cqla.Fig6aBlockCounts()
	if n := len(sweepPoints(t, "fig6a")); n != len(cqla.PaperInputSizes())*len(counts) {
		t.Fatalf("fig6a has %d points", n)
	}
	at := sweepIndex(t, "fig6a")
	for _, n := range cqla.PaperInputSizes() {
		for i := 1; i < len(counts); i++ {
			if at(n, counts[i]).MustMetric("utilization") > at(n, counts[i-1]).MustMetric("utilization")+1e-9 {
				t.Errorf("n=%d: utilization not monotone nonincreasing", n)
			}
		}
	}
	// Larger adders keep more blocks busy: at 100 blocks the 1024-bit
	// adder's utilization must exceed the 32-bit adder's.
	u32, u1024 := at(32, 100).MustMetric("utilization"), at(1024, 100).MustMetric("utilization")
	if u1024 <= u32 {
		t.Errorf("1024-bit utilization %.2f should exceed 32-bit %.2f at 100 blocks", u1024, u32)
	}
}

func TestFig6bShape(t *testing.T) {
	for _, pt := range sweepPoints(t, "fig6b") {
		k := pt.Coords[0].Int()
		if c := pt.MustMetric("crossover"); c != 36 {
			t.Errorf("k=%d: crossover = %v, paper finds 36", k, c)
		}
		if pt.MustMetric("required_worst") <= pt.MustMetric("required_draper") {
			t.Errorf("k=%d: worst case should exceed Draper demand", k)
		}
		if k <= 36 && pt.MustMetric("available") < pt.MustMetric("required_draper") {
			t.Errorf("k=%d: should be bandwidth-sufficient below crossover", k)
		}
		if k > 40 && pt.MustMetric("available") >= pt.MustMetric("required_draper") {
			t.Errorf("k=%d: should be starved above crossover", k)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	pts := sweepPoints(t, "fig7")
	if len(pts) != len(cqla.Fig7Sizes())*3 {
		t.Fatalf("fig7 has %d points", len(pts))
	}
	for _, pt := range pts {
		n, capQ := pt.Coords[0].Int(), int(pt.MustMetric("cache_qubits"))
		naive, opt := pt.MustMetric("naive_hit"), pt.MustMetric("optimized_hit")
		if opt <= naive {
			t.Errorf("n=%d cache=%d: optimized %.2f <= naive %.2f", n, capQ, opt, naive)
		}
		if opt < 0.55 || opt > 0.95 {
			t.Errorf("n=%d: optimized rate %.2f outside expected band", n, opt)
		}
	}
}

func TestFig8aShape(t *testing.T) {
	pts := sweepPoints(t, "fig8a")
	for i, pt := range pts {
		if pt.MustMetric("communication_s") >= pt.MustMetric("computation_s") {
			t.Errorf("n=%d: modular exponentiation should be computation dominated", pt.Coords[0].Int())
		}
		if i > 0 && pt.MustMetric("computation_s") <= pts[i-1].MustMetric("computation_s") {
			t.Error("computation time should grow with size")
		}
	}
	// The 1024-bit run lands at hundreds of hours, as in Figure 8(a).
	if h := pts[len(pts)-1].MustMetric("computation_s") / 3600; h < 100 || h > 5000 {
		t.Errorf("1024-bit modexp = %.0f hours, expected hundreds", h)
	}
}

func TestFig8bShape(t *testing.T) {
	pts := sweepPoints(t, "fig8b")
	for i, pt := range pts {
		n, comp, comm := pt.Coords[0].Int(), pt.MustMetric("computation_s"), pt.MustMetric("communication_s")
		if comm >= comp {
			t.Errorf("n=%d: QFT communication should sit just below computation", n)
		}
		// "closely tracks": within a small factor, unlike modexp.
		if ratio := comm / comp; ratio < 0.4 {
			t.Errorf("n=%d: QFT communication/computation = %.2f, should track closely", n, ratio)
		}
		if i > 0 && comp <= pts[i-1].MustMetric("computation_s") {
			t.Error("QFT time should grow with size")
		}
	}
	// ~10^5 seconds at n=1000 (Figure 8(b)'s y-scale).
	if s := pts[len(pts)-1].MustMetric("computation_s"); s < 3e4 || s > 1e6 {
		t.Errorf("1000-qubit QFT = %.0f s, expected ~1e5", s)
	}
}
