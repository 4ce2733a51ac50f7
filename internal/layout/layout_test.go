package layout

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/cqla"
	"repro/internal/gen"
)

// Region returns the placed rectangle of a kind, if present.
func (f *Floorplan) Region(kind RegionKind) (Region, bool) {
	for _, r := range f.Regions {
		if r.Kind == kind {
			return r, true
		}
	}
	return Region{}, false
}

// machine is the paper's working point with the given code and block
// budget.
func machine(t *testing.T, code string, blocks int) *cqla.Machine {
	t.Helper()
	m, err := arch.New(arch.WithCodeName(code), arch.WithBlocks(blocks))
	if err != nil {
		t.Fatal(err)
	}
	return m.Analytic()
}

func build(t *testing.T, bits, blocks int, hierarchy bool) *Floorplan {
	t.Helper()
	f, err := Build(machine(t, "bacon-shor", blocks), bits, hierarchy)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBuildFlat(t *testing.T) {
	f := build(t, 256, 36, false)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Regions) != 2 {
		t.Fatalf("flat floorplan has %d regions, want 2", len(f.Regions))
	}
	if _, ok := f.Region(Memory); !ok {
		t.Error("missing memory region")
	}
	if _, ok := f.Region(Cache); ok {
		t.Error("flat floorplan should not have a cache")
	}
}

func TestBuildHierarchy(t *testing.T) {
	f := build(t, 256, 36, true)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Regions) != 5 {
		t.Fatalf("hierarchy floorplan has %d regions, want 5", len(f.Regions))
	}
	// Strip order: memory first, level-2 compute last.
	if f.Regions[0].Kind != Memory || f.Regions[len(f.Regions)-1].Kind != ComputeL2 {
		t.Error("strip ordering wrong")
	}
	// The level-2 compute region is the largest strip (its 1:2 ancilla
	// provisioning is what the dense memory avoids paying), with memory
	// second.
	mem, _ := f.Region(Memory)
	l2, _ := f.Region(ComputeL2)
	if l2.AreaMM2() <= mem.AreaMM2() {
		t.Error("level-2 compute should out-size memory at this working point")
	}
	if mem.AreaMM2() < 0.1*f.TotalAreaMM2() {
		t.Errorf("memory share = %.2f of die, implausibly small", mem.AreaMM2()/f.TotalAreaMM2())
	}
}

func TestDieAspect(t *testing.T) {
	f := build(t, 1024, 100, true)
	aspect := f.WidthMM / f.HeightMM
	if aspect < 1.5 || aspect > 2.5 {
		t.Errorf("die aspect = %.2f, want ~2", aspect)
	}
}

func TestAreasMatchConfiguredModel(t *testing.T) {
	// The floorplan realizes exactly the cqla area model, region by region.
	for _, blocks := range []int{36, 100} {
		m := machine(t, "bacon-shor", blocks)
		f, err := Build(m, 256, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f.TotalAreaMM2()-f.WidthMM*f.HeightMM)/f.TotalAreaMM2() > 1e-6 {
			t.Errorf("%d blocks: strips do not tile the die", blocks)
		}
		q := gen.NewModExp(256).LogicalQubits()
		for kind, want := range map[RegionKind]float64{
			Memory:    float64(q) * m.MemoryTileAreaMM2(),
			Transfer:  m.TransferAreaMM2(),
			Cache:     m.CacheAreaMM2(),
			ComputeL1: m.L1ComputeAreaMM2(),
			ComputeL2: m.ComputeAreaMM2(),
		} {
			r, _ := f.Region(kind)
			if math.Abs(r.AreaMM2()-want) > 1e-9*want {
				t.Errorf("%d blocks: %v is %.3f mm², model says %.3f", blocks, kind, r.AreaMM2(), want)
			}
		}
	}
}

func TestHierarchyAddsArea(t *testing.T) {
	flat := build(t, 256, 36, false)
	hier := build(t, 256, 36, true)
	if hier.TotalAreaMM2() <= flat.TotalAreaMM2() {
		t.Error("hierarchy should add area")
	}
	// But not much: the level-1 tier is cheap (its qubits are 20x smaller).
	if hier.TotalAreaMM2() > 1.35*flat.TotalAreaMM2() {
		t.Errorf("hierarchy overhead = %.2fx", hier.TotalAreaMM2()/flat.TotalAreaMM2())
	}
}

func TestASCIIRendering(t *testing.T) {
	f := build(t, 256, 36, true)
	art := f.ASCII(60)
	for _, glyph := range []string{"M", "T", "$", "1", "2"} {
		if !strings.Contains(art, glyph) {
			t.Errorf("ASCII missing glyph %q:\n%s", glyph, art)
		}
	}
	if !strings.Contains(art, "mm²") {
		t.Error("ASCII missing legend")
	}
	// Tiny width still renders.
	if f.ASCII(3) == "" {
		t.Error("clamped width should render")
	}
}

// TestASCIIEdgeColumns: a region narrower than one column still gets one
// column of its glyph, and a region overhanging the die is clipped at its
// right edge.
func TestASCIIEdgeColumns(t *testing.T) {
	f := &Floorplan{WidthMM: 100, HeightMM: 10, Regions: []Region{
		{Kind: Memory, X: 0, W: 50, H: 10},
		{Kind: Cache, X: 50, W: 0.1, H: 10},
		{Kind: Transfer, X: 80, W: 40, H: 10},
	}}
	rows := strings.Split(f.ASCII(10), "\n")
	if got := rows[1]; got != "MMMMM$..TT" {
		t.Errorf("first grid row = %q, want MMMMM$..TT", got)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, 256, true); err == nil {
		t.Error("nil machine should fail")
	}
	if _, err := Build(machine(t, "steane", 4), 0, true); err == nil {
		t.Error("zero bits should fail")
	}
}

// Property: floorplans validate for any sane configuration, and area grows
// monotonically with input size.
func TestFloorplanValidityProperty(t *testing.T) {
	f := func(bitsSeed, blocksSeed uint8, hierarchy bool) bool {
		bits := 16 + int(bitsSeed)%1009
		blocks := 1 + int(blocksSeed)%150
		fp, err := Build(machine(t, "steane", blocks), bits, hierarchy)
		if err != nil {
			return false
		}
		return fp.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRegionKindString(t *testing.T) {
	if Memory.String() != "memory (L2)" || Cache.String() != "cache (L1)" {
		t.Error("region names wrong")
	}
	if RegionKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

// TestValidateRejectsBrokenFloorplans drives each structural check of
// Validate with a hand-broken placement.
func TestValidateRejectsBrokenFloorplans(t *testing.T) {
	for name, f := range map[string]*Floorplan{
		"non-positive": {WidthMM: 2, HeightMM: 1, Regions: []Region{{Kind: Memory, W: 0, H: 1}}},
		"escapes":      {WidthMM: 2, HeightMM: 1, Regions: []Region{{Kind: Memory, X: 1.5, W: 1, H: 1}}},
		"overlap": {WidthMM: 2, HeightMM: 1, Regions: []Region{
			{Kind: Memory, W: 1.5, H: 1},
			{Kind: Cache, X: 1, W: 1, H: 1},
		}},
	} {
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Validate() = %v, want an error mentioning %q", err, name)
		}
	}
}
