// Package layout produces the CQLA's physical floorplan: the arrangement of
// the dense level-2 memory, the code-transfer networks, the level-1 cache,
// and the level-1 and level-2 compute regions on the ion-trap substrate
// (Figure 3(b) of the paper). Build places the region areas a
// cqla.Machine reports as rectangles, with no area formula of its own;
// the package checks that regions tile without overlap and renders an
// ASCII schematic for inspection.
package layout

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cqla"
	"repro/internal/gen"
)

// RegionKind identifies a floorplan region.
type RegionKind int

const (
	// Memory is the dense level-2 storage region.
	Memory RegionKind = iota
	// Transfer is the code-teleportation strip between encoding levels.
	Transfer
	// Cache is the level-1 staging region.
	Cache
	// ComputeL1 is the fast level-1 compute region.
	ComputeL1
	// ComputeL2 is the level-2 compute region.
	ComputeL2
)

var regionNames = map[RegionKind]string{
	Memory:    "memory (L2)",
	Transfer:  "transfer network",
	Cache:     "cache (L1)",
	ComputeL1: "compute (L1)",
	ComputeL2: "compute (L2)",
}

var regionGlyphs = map[RegionKind]byte{
	Memory:    'M',
	Transfer:  'T',
	Cache:     '$',
	ComputeL1: '1',
	ComputeL2: '2',
}

// String names the region kind.
func (k RegionKind) String() string {
	if s, ok := regionNames[k]; ok {
		return s
	}
	return fmt.Sprintf("layout.RegionKind(%d)", int(k))
}

// Region is a placed rectangle in millimetres.
type Region struct {
	Kind       RegionKind
	X, Y, W, H float64
}

// AreaMM2 returns the region's area.
func (r Region) AreaMM2() float64 { return r.W * r.H }

// Floorplan is a complete CQLA placement.
type Floorplan struct {
	WidthMM, HeightMM float64
	Regions           []Region
}

// Build computes the floorplan of machine m holding an inputBits-wide
// modular exponentiation in memory; hierarchy adds the level-1 tier. The
// regions are the model's — the memory tiles of the workload's logical
// qubits and the cqla.Machine region areas — so the die totals m.AreaMM2.
// They are laid out as vertical strips in memory-hierarchy order (memory,
// transfer, cache, level-1 compute, level-2 compute), sharing a common
// height chosen to keep the die roughly 2:1.
func Build(m *cqla.Machine, inputBits int, hierarchy bool) (*Floorplan, error) {
	if m == nil || inputBits < 1 {
		return nil, fmt.Errorf("layout: need a machine and at least 1 input bit, got %d", inputBits)
	}
	// Indexed by kind; the kinds are declared in strip order.
	var areas [ComputeL2 + 1]float64
	areas[Memory] = float64(gen.NewModExp(inputBits).LogicalQubits()) * m.MemoryTileAreaMM2()
	areas[ComputeL2] = m.ComputeAreaMM2()
	if hierarchy {
		areas[Transfer] = m.TransferAreaMM2()
		areas[Cache] = m.CacheAreaMM2()
		areas[ComputeL1] = m.L1ComputeAreaMM2()
	}
	total := 0.0
	for _, a := range areas {
		total += a
	}
	// Common strip height for a ~2:1 die.
	height := math.Sqrt(total / 2)
	fp := &Floorplan{HeightMM: height}
	for kind, area := range areas {
		if area == 0 {
			continue
		}
		w := area / height
		fp.Regions = append(fp.Regions, Region{Kind: RegionKind(kind), X: fp.WidthMM, W: w, H: height})
		fp.WidthMM += w
	}
	return fp, nil
}

// TotalAreaMM2 returns the sum of region areas.
func (f *Floorplan) TotalAreaMM2() float64 {
	sum := 0.0
	for _, r := range f.Regions {
		sum += float64(r.AreaMM2()) // float64: no fused multiply-add (scripts/fma-check.sh)
	}
	return sum
}

// Validate checks structural soundness: positive dimensions, regions within
// the die, and no pairwise overlap.
func (f *Floorplan) Validate() error {
	for i, r := range f.Regions {
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("layout: region %v has non-positive dimensions", r.Kind)
		}
		if r.X < -1e-9 || r.Y < -1e-9 || r.X+r.W > f.WidthMM+1e-9 || r.Y+r.H > f.HeightMM+1e-9 {
			return fmt.Errorf("layout: region %v escapes the die", r.Kind)
		}
		for j := i + 1; j < len(f.Regions); j++ {
			o := f.Regions[j]
			if r.X < o.X+o.W-1e-9 && o.X < r.X+r.W-1e-9 &&
				r.Y < o.Y+o.H-1e-9 && o.Y < r.Y+r.H-1e-9 {
				return fmt.Errorf("layout: regions %v and %v overlap", r.Kind, o.Kind)
			}
		}
	}
	return nil
}

// ASCII renders the floorplan as a fixed-width schematic with one glyph per
// region (M memory, T transfer, $ cache, 1/2 compute levels), plus a
// legend with dimensions.
func (f *Floorplan) ASCII(cols int) string {
	if cols < 10 {
		cols = 10
	}
	rows := cols / 4
	if rows < 4 {
		rows = 4
	}
	grid := make([][]byte, rows)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(".", cols))
	}
	for _, r := range f.Regions {
		x0 := int(r.X / f.WidthMM * float64(cols))
		x1 := int((r.X + r.W) / f.WidthMM * float64(cols))
		if x1 <= x0 {
			x1 = x0 + 1
		}
		if x1 > cols {
			x1 = cols
		}
		for y := 0; y < rows; y++ {
			for x := x0; x < x1; x++ {
				grid[y][x] = regionGlyphs[r.Kind]
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "die: %.1f x %.1f mm (%.0f mm²)\n", f.WidthMM, f.HeightMM, f.TotalAreaMM2())
	for _, row := range grid {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	for _, r := range f.Regions {
		fmt.Fprintf(&sb, "%c %-18s %7.1f mm² (%.1f x %.1f mm)\n",
			regionGlyphs[r.Kind], r.Kind, r.AreaMM2(), r.W, r.H)
	}
	return sb.String()
}
