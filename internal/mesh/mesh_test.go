package mesh

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ecc"
	"repro/internal/phys"
)

func TestNewMeshFor(t *testing.T) {
	cases := []struct{ sites, rows, cols int }{
		{1, 1, 1},
		{4, 2, 2},
		{5, 3, 2},
		{9, 3, 3},
		{100, 10, 10},
		{101, 11, 10},
	}
	for _, c := range cases {
		m := NewMeshFor(c.sites)
		if m.Rows != c.rows || m.Cols != c.cols {
			t.Errorf("NewMeshFor(%d) = %dx%d, want %dx%d", c.sites, m.Rows, m.Cols, c.rows, c.cols)
		}
		if m.Rows*m.Cols < c.sites {
			t.Errorf("mesh for %d sites holds only %d", c.sites, m.Rows*m.Cols)
		}
	}
}

func TestBisection(t *testing.T) {
	if b := (Mesh{Rows: 10, Cols: 12}).Bisection(); b != 10 {
		t.Errorf("bisection = %d", b)
	}
}

func TestPurification(t *testing.T) {
	// One round of 0.9-fidelity pairs: 0.81/(0.81+0.01) ~ 0.988.
	got := PurifyFidelity(0.9)
	if math.Abs(got-0.81/0.82) > 1e-12 {
		t.Errorf("PurifyFidelity(0.9) = %g", got)
	}
	// Purification must improve any fidelity above 1/2.
	for _, f := range []float64{0.51, 0.6, 0.75, 0.99} {
		if PurifyFidelity(f) <= f {
			t.Errorf("purification did not improve f=%g", f)
		}
	}
	// And it cannot help at or below 1/2.
	if PurificationRounds(0.5, 0.9) != -1 {
		t.Error("f=0.5 should be unpurifiable")
	}
	if r := PurificationRounds(0.9, 0.99); r != 2 {
		t.Errorf("rounds(0.9 -> 0.99) = %d, want 2", r)
	}
	if r := PurificationRounds(0.95, 0.9); r != 0 {
		t.Errorf("already above target should need 0 rounds, got %d", r)
	}
}

// Property: purified fidelity stays in (1/2, 1) for inputs in (1/2, 1).
func TestPurifyRangeProperty(t *testing.T) {
	f := func(x float64) bool {
		fid := 0.5 + math.Mod(math.Abs(x), 0.5)
		if fid <= 0.5 || fid >= 1 {
			return true
		}
		p := PurifyFidelity(fid)
		return p > 0.5 && p < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransportTimeEqualsTransversalGate(t *testing.T) {
	p := phys.Projected()
	for _, c := range ecc.Codes() {
		for level := 1; level <= 2; level++ {
			if TransportTime(c, level, p) != c.TransversalGateTime(level, p) {
				t.Errorf("%s L%d transport != transversal gate time", c.Short, level)
			}
		}
	}
}

func TestFigure6bCrossoverAt36(t *testing.T) {
	sb := DefaultSuperblock()
	k := sb.Crossover()
	if k != 36 {
		t.Errorf("superblock crossover = %d blocks, paper finds 36", k)
	}
	// Below the crossover the perimeter keeps up; above it demand wins.
	if sb.Available(16) < sb.RequiredDraper(16) {
		t.Error("16-block superblock should be bandwidth-sufficient")
	}
	if sb.Available(64) >= sb.RequiredDraper(64) {
		t.Error("64-block superblock should be bandwidth-starved")
	}
}

func TestWorstCaseDemandSteeper(t *testing.T) {
	sb := DefaultSuperblock()
	for _, k := range []int{10, 40, 80} {
		if sb.RequiredWorst(k) <= sb.RequiredDraper(k) {
			t.Errorf("worst-case demand should exceed Draper demand at k=%d", k)
		}
	}
	// Worst case crosses available bandwidth far earlier.
	if sb.Available(9) >= sb.RequiredWorst(9) {
		t.Error("worst-case traffic should starve even a 9-block superblock")
	}
}

func TestAvailableScalesWithPerimeter(t *testing.T) {
	sb := DefaultSuperblock()
	// Quadrupling the blocks doubles the perimeter bandwidth.
	if math.Abs(sb.Available(64)-2*sb.Available(16)) > 1e-9 {
		t.Errorf("available(64) = %g, want 2x available(16) = %g", sb.Available(64), 2*sb.Available(16))
	}
}

func TestAllToAllTime(t *testing.T) {
	p := phys.Projected()
	bs := ecc.BaconShor()
	if AllToAllTime(1, bs, 2, p) != 0 {
		t.Error("single party all-to-all should be free")
	}
	t100 := AllToAllTime(100, bs, 2, p)
	t400 := AllToAllTime(400, bs, 2, p)
	if t100 <= 0 {
		t.Fatal("all-to-all time should be positive")
	}
	// Traffic grows ~n², bisection ~√n: time grows ~n^1.5 = 8x for 4x nodes.
	ratio := float64(t400) / float64(t100)
	if ratio < 6 || ratio > 10 {
		t.Errorf("all-to-all scaling ratio = %.1f, want ~8", ratio)
	}
}

func TestMeshPanicsOnZeroSites(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMeshFor(0)
}
