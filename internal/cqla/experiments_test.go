package cqla

import (
	"strings"
	"testing"

	"repro/internal/phys"
)

func TestTable4Shape(t *testing.T) {
	rows := Table4(phys.Projected())
	if len(rows) != 12 {
		t.Fatalf("Table 4 has %d rows, want 12", len(rows))
	}
	for _, r := range rows {
		if r.AreaReducedBS <= r.AreaReducedSteane {
			t.Errorf("n=%d k=%d: BS area factor should beat Steane", r.InputSize, r.Blocks)
		}
		if r.SpeedupSteane > 1.0001 {
			t.Errorf("n=%d k=%d: Steane speedup %.2f > 1", r.InputSize, r.Blocks, r.SpeedupSteane)
		}
		if r.SpeedupBS < 1 {
			t.Errorf("n=%d k=%d: BS speedup %.2f < 1", r.InputSize, r.Blocks, r.SpeedupBS)
		}
		if gp := r.AreaReducedSteane * r.SpeedupSteane; absF(gp-r.GainProductSteane) > 1e-9 {
			t.Errorf("GP(St) inconsistent")
		}
	}
	// Within each size, more blocks trade area for speed.
	for i := 0; i+1 < len(rows); i += 2 {
		a, b := rows[i], rows[i+1]
		if a.InputSize != b.InputSize {
			t.Fatalf("row pairing broken at %d", i)
		}
		if b.AreaReducedSteane >= a.AreaReducedSteane {
			t.Errorf("n=%d: more blocks should reduce the area factor", a.InputSize)
		}
		if b.SpeedupSteane <= a.SpeedupSteane {
			t.Errorf("n=%d: more blocks should raise speedup", a.InputSize)
		}
	}
	// Gain products grow with problem size (first-block-count rows).
	if rows[10].GainProductBS <= rows[0].GainProductBS {
		t.Error("BS gain product should grow from 32 to 1024 bits")
	}
}

func TestTable5Shape(t *testing.T) {
	rows := Table5(phys.Projected())
	if len(rows) != 12 {
		t.Fatalf("Table 5 has %d rows, want 12", len(rows))
	}
	byKey := map[string]Table5Row{}
	for _, r := range rows {
		byKey[r.Code+"/"+itoa(r.ParallelTransfers)+"/"+itoa(r.AdderSize)] = r
		if r.AdderSpeedup < 1 {
			t.Errorf("%s P=%d n=%d: hierarchy should speed up the adder (got %.2f)",
				r.Code, r.ParallelTransfers, r.AdderSize, r.AdderSpeedup)
		}
		if r.L1Speedup <= r.L2Speedup {
			t.Errorf("%s n=%d: L1 should be faster than L2", r.Code, r.AdderSize)
		}
		if gp := r.AdderSpeedup * r.AreaReduced; absF(gp-r.GainProduct)/gp > 1e-9 {
			t.Errorf("GP inconsistent for %s n=%d", r.Code, r.AdderSize)
		}
	}
	// Ten parallel transfers beat five.
	for _, code := range []string{"[[7,1,3]]", "[[9,1,3]]"} {
		for _, n := range Table5Sizes() {
			ten := byKey[code+"/10/"+itoa(n)]
			five := byKey[code+"/5/"+itoa(n)]
			if ten.L1Speedup <= five.L1Speedup {
				t.Errorf("%s n=%d: 10 transfers should beat 5", code, n)
			}
		}
	}
	// Bacon-Shor gain products dominate Steane's at equal configuration.
	for _, n := range Table5Sizes() {
		if byKey["[[9,1,3]]/10/"+itoa(n)].GainProduct <= byKey["[[7,1,3]]/10/"+itoa(n)].GainProduct {
			t.Errorf("n=%d: BS gain product should dominate", n)
		}
	}
	// L1 speedup roughly flat in adder size (paper: 17.4 -> 18.2).
	st256 := byKey["[[7,1,3]]/10/256"].L1Speedup
	st1024 := byKey["[[7,1,3]]/10/1024"].L1Speedup
	if st1024 < 0.6*st256 || st1024 > 1.4*st256 {
		t.Errorf("Steane L1 speedup drifts with size: %.1f vs %.1f", st256, st1024)
	}
	// GP grows with size for fixed code and transfers.
	if byKey["[[9,1,3]]/10/1024"].GainProduct <= byKey["[[9,1,3]]/10/256"].GainProduct {
		t.Error("BS GP should grow with size")
	}
}

func TestFig2Shape(t *testing.T) {
	f := Fig2(64, 15)
	if f.UnlimitedSlots != AdderKernel(64).Depth() {
		t.Error("unlimited profile length should equal depth")
	}
	if f.LimitedSlots < f.UnlimitedSlots {
		t.Error("limited schedule cannot beat unlimited")
	}
	// 15 blocks keep the 64-bit adder within ~30% of unlimited runtime.
	if float64(f.LimitedSlots) > 1.3*float64(f.UnlimitedSlots) {
		t.Errorf("15 blocks: %d slots vs %d unlimited", f.LimitedSlots, f.UnlimitedSlots)
	}
	// Peak unlimited parallelism is tens of gates (Figure 2 peaks ~55).
	peak := 0
	for _, w := range f.UnlimitedProfile {
		if w > peak {
			peak = w
		}
	}
	if peak < 20 {
		t.Errorf("peak parallelism %d, expected tens of gates", peak)
	}
	// Limited profile never exceeds the block budget.
	for _, w := range f.LimitedProfile {
		if w > 15 {
			t.Errorf("limited profile exceeds 15 blocks: %d", w)
		}
	}
}

func TestFig6aShape(t *testing.T) {
	curves := Fig6a()
	if len(curves) != len(PaperInputSizes()) {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		for i := 1; i < len(c.Utilizations); i++ {
			if c.Utilizations[i] > c.Utilizations[i-1]+1e-9 {
				t.Errorf("n=%d: utilization not monotone nonincreasing", c.AdderSize)
			}
		}
	}
	// Larger adders keep more blocks busy: at 100 blocks the 1024-bit
	// adder's utilization must exceed the 32-bit adder's.
	var u32, u1024 float64
	for _, c := range curves {
		for i, k := range c.BlockCounts {
			if k == 100 {
				if c.AdderSize == 32 {
					u32 = c.Utilizations[i]
				}
				if c.AdderSize == 1024 {
					u1024 = c.Utilizations[i]
				}
			}
		}
	}
	if u1024 <= u32 {
		t.Errorf("1024-bit utilization %.2f should exceed 32-bit %.2f at 100 blocks", u1024, u32)
	}
}

func TestFig6bShape(t *testing.T) {
	f := Fig6b()
	if f.Crossover != 36 {
		t.Errorf("crossover = %d, paper finds 36", f.Crossover)
	}
	for i, k := range f.Blocks {
		if f.RequiredWorst[i] <= f.RequiredDraper[i] {
			t.Errorf("k=%d: worst case should exceed Draper demand", k)
		}
		if k <= 36 && f.Available[i] < f.RequiredDraper[i] {
			t.Errorf("k=%d: should be bandwidth-sufficient below crossover", k)
		}
		if k > 40 && f.Available[i] >= f.RequiredDraper[i] {
			t.Errorf("k=%d: should be starved above crossover", k)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rows := Fig7(phys.Projected())
	if len(rows) != len(Fig7Sizes())*3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.OptimRate <= r.NaiveRate {
			t.Errorf("n=%d cache=%d: optimized %.2f <= naive %.2f", r.AdderSize, r.CacheSize, r.OptimRate, r.NaiveRate)
		}
		if r.OptimRate < 0.55 || r.OptimRate > 0.95 {
			t.Errorf("n=%d: optimized rate %.2f outside expected band", r.AdderSize, r.OptimRate)
		}
	}
}

func TestFig8aShape(t *testing.T) {
	pts := Fig8a(phys.Projected())
	for i, p := range pts {
		if p.Communication >= p.Computation {
			t.Errorf("n=%d: modular exponentiation should be computation dominated", p.ProblemSize)
		}
		if i > 0 && p.Computation <= pts[i-1].Computation {
			t.Error("computation time should grow with size")
		}
	}
	// The 1024-bit run lands at hundreds of hours, as in Figure 8(a).
	last := pts[len(pts)-1]
	if h := last.Computation.Hours(); h < 100 || h > 5000 {
		t.Errorf("1024-bit modexp = %.0f hours, expected hundreds", h)
	}
}

func TestFig8bShape(t *testing.T) {
	pts := Fig8b(phys.Projected())
	for i, p := range pts {
		if p.Communication >= p.Computation {
			t.Errorf("n=%d: QFT communication should sit just below computation", p.ProblemSize)
		}
		// "closely tracks": within a small factor, unlike modexp.
		if ratio := float64(p.Communication) / float64(p.Computation); ratio < 0.4 {
			t.Errorf("n=%d: QFT communication/computation = %.2f, should track closely", p.ProblemSize, ratio)
		}
		if i > 0 && p.Computation <= pts[i-1].Computation {
			t.Error("QFT time should grow with size")
		}
	}
	// ~10^5 seconds at n=1000 (Figure 8(b)'s y-scale).
	last := pts[len(pts)-1]
	if s := last.Computation.Seconds(); s < 3e4 || s > 1e6 {
		t.Errorf("1000-qubit QFT = %.0f s, expected ~1e5", s)
	}
}

func TestTable2RowsComplete(t *testing.T) {
	rows := Table2Rows(phys.Projected())
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Code+itoa(r.Level)] = true
	}
	for _, k := range []string{"[[7,1,3]]1", "[[7,1,3]]2", "[[9,1,3]]1", "[[9,1,3]]2"} {
		if !seen[k] {
			t.Errorf("missing row %s", k)
		}
	}
}

func TestTable3MatrixShape(t *testing.T) {
	encs, m := Table3Matrix()
	if len(encs) != 4 || len(m) != 4 {
		t.Fatal("matrix should be 4x4")
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("diagonal %d not zero", i)
		}
	}
}

func TestFormatters(t *testing.T) {
	p := phys.Projected()
	t4 := FormatTable4(Table4(p))
	if !strings.Contains(t4, "1024") || !strings.Contains(t4, "GP(BSr)") {
		t.Error("Table 4 formatting incomplete")
	}
	t5 := FormatTable5(Table5(p))
	if !strings.Contains(t5, "[[9,1,3]]") {
		t.Error("Table 5 formatting incomplete")
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
