package arch

import (
	"testing"

	"repro/internal/cqla"
)

// TestDESResidencyReadsCacheQubits pins the des engine's derived residency
// to the machine model: the level-2 compute region's data qubits plus the
// model's level-1 cache, which stops growing at one superblock (36 blocks
// x 9 data qubits x cache factor 2 = 648 qubits).
func TestDESResidencyReadsCacheQubits(t *testing.T) {
	for _, code := range CodeNames() {
		for _, c := range []struct {
			blocks      int
			cacheFactor float64
			cache       int
		}{
			{9, cqla.CacheFactor, 162},
			{36, cqla.CacheFactor, 648},
			{49, cqla.CacheFactor, 648},
			{100, cqla.CacheFactor, 648},
			{100, 3, 972},
		} {
			m, err := New(WithCodeName(code), WithBlocks(c.blocks), WithCacheFactor(c.cacheFactor))
			if err != nil {
				t.Fatal(err)
			}
			if got := m.cq.CacheQubits(); got != c.cache {
				t.Errorf("%s, %d blocks, cache factor %g: CacheQubits() = %d, want %d", code, c.blocks, c.cacheFactor, got, c.cache)
			}
			want := c.blocks*cqla.BlockDataQubits + m.cq.CacheQubits()
			if got := m.desConfig().ResidentQubits; got != want {
				t.Errorf("%s, %d blocks: des residency %d, want %d", code, c.blocks, got, want)
			}
		}
	}
}
