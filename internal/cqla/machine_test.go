package cqla

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ecc"
	"repro/internal/phys"
	"repro/internal/transfer"
)

// paper returns the paper's working point for a code and block budget:
// projected parameters, ten parallel transfers and the Section 5.2 cache
// factor and overlap.
func paper(code *ecc.Code, blocks int) Config {
	return Config{
		Code:              code,
		Params:            phys.Projected(),
		ComputeBlocks:     blocks,
		ParallelTransfers: 10,
		CacheFactor:       CacheFactor,
		TransferOverlap:   TransferOverlap,
	}
}

// mustMachine builds a machine the test knows to be valid.
func mustMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func steaneMachine(blocks int) *Machine { return mustMachine(paper(ecc.Steane(), blocks)) }

func bsMachine(blocks int) *Machine { return mustMachine(paper(ecc.BaconShor(), blocks)) }

func TestMemoryTileDenserThanComputeTile(t *testing.T) {
	m := steaneMachine(9)
	full := m.Config().Code.AreaMM2(2, m.Config().Params)
	mem := m.MemoryTileAreaMM2()
	if mem >= full {
		t.Errorf("memory tile %.3f should be smaller than full tile %.3f", mem, full)
	}
	// Figure 3(a) promises at least an 8/3 density gain from the 8:1 ratio
	// alone; our tile model additionally strips the internal fast-EC
	// ancilla ions, so the per-data-qubit gain is larger still.
	computePerData := 3 * full
	ratio := computePerData / mem
	if ratio < 8.0/3.0 {
		t.Errorf("compute/memory density ratio = %.2f, below the 8/3 floor", ratio)
	}
	if ratio > 25 {
		t.Errorf("compute/memory density ratio = %.2f, implausibly high", ratio)
	}
}

func TestAreaScalesWithBlocksAndQubits(t *testing.T) {
	small := steaneMachine(4)
	big := steaneMachine(16)
	if small.ComputeAreaMM2() >= big.ComputeAreaMM2() {
		t.Error("compute area should grow with blocks")
	}
	if small.AreaMM2(100, false) >= small.AreaMM2(200, false) {
		t.Error("area should grow with memory qubits")
	}
	if small.AreaMM2(100, false) >= small.AreaMM2(100, true) {
		t.Error("hierarchy should add area")
	}
}

func TestAreaReductionInPaperBand(t *testing.T) {
	// Table 4 reports factors between ~3.2 and ~13.4.
	for n, blocks := range PaperBlockCounts() {
		q := 5*n + 3
		for _, k := range [2]int{blocks[0], blocks[1]} {
			st := steaneMachine(k).AreaReduction(q, false)
			bs := bsMachine(k).AreaReduction(q, false)
			if st < 2.5 || st > 14 {
				t.Errorf("n=%d k=%d: Steane area factor %.2f outside band", n, k, st)
			}
			if bs <= st {
				t.Errorf("n=%d k=%d: Bacon-Shor factor %.2f should beat Steane %.2f", n, k, bs, st)
			}
			if bs > 16 {
				t.Errorf("n=%d k=%d: Bacon-Shor factor %.2f implausibly high", n, k, bs)
			}
		}
	}
}

func TestUpToThirteenXDensity(t *testing.T) {
	// The abstract's headline: "up to a factor of thirteen savings in area".
	best := 0.0
	for n, blocks := range PaperBlockCounts() {
		q := 5*n + 3
		if f := bsMachine(blocks[0]).AreaReduction(q, false); f > best {
			best = f
		}
	}
	if best < 9 || best > 14 {
		t.Errorf("best Bacon-Shor area factor = %.1f, paper reports up to 13.4", best)
	}
}

func TestSteaneSpeedupBelowOne(t *testing.T) {
	// With Steane in both machines the CQLA can only lose time to its
	// limited blocks: speedup in (0, 1], approaching 1 with more blocks.
	m1 := steaneMachine(PaperBlockCounts()[256][0])
	m2 := steaneMachine(PaperBlockCounts()[256][1])
	adder := AdderKernel(256)
	s1, s2 := m1.SpeedupL2(adder), m2.SpeedupL2(adder)
	if s1 <= 0 || s1 > 1.0001 || s2 <= 0 || s2 > 1.0001 {
		t.Errorf("Steane speedups out of range: %.2f %.2f", s1, s2)
	}
	if s2 <= s1 {
		t.Errorf("more blocks should be faster: %.2f vs %.2f", s1, s2)
	}
}

func TestBaconShorSpeedupBand(t *testing.T) {
	// Table 4: Bacon-Shor speedups 1.47-3.0 (faster error correction
	// outruns the baseline even with few blocks).
	for n, blocks := range PaperBlockCounts() {
		s := bsMachine(blocks[1]).SpeedupL2(AdderKernel(n))
		if s < 1.2 || s > 3.2 {
			t.Errorf("n=%d: Bacon-Shor speedup %.2f outside paper band", n, s)
		}
	}
}

func TestBaconShorIsThreeTimesSteane(t *testing.T) {
	// The codes share the schedule; the ratio is the EC-time ratio (3x).
	st := steaneMachine(36)
	bs := bsMachine(36)
	adder := AdderKernel(256)
	ratio := bs.SpeedupL2(adder) / st.SpeedupL2(adder)
	if ratio < 2.9 || ratio > 3.1 {
		t.Errorf("BS/Steane speedup ratio = %.2f, want ~3", ratio)
	}
}

func TestGainProductCombinesAreaAndSpeed(t *testing.T) {
	m := bsMachine(36)
	q := 5*256 + 3
	adder := AdderKernel(256)
	gp := m.GainProduct(adder, q, false)
	want := m.AreaReduction(q, false) * m.SpeedupL2(adder)
	if diff := gp - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("gain product %.3f != area x speed %.3f", gp, want)
	}
}

func TestLevel1BlocksCappedAtSuperblock(t *testing.T) {
	if got := steaneMachine(100).Level1Blocks(); got != MaxSuperblockBlocks {
		t.Errorf("level-1 blocks = %d, want superblock cap %d", got, MaxSuperblockBlocks)
	}
	if got := steaneMachine(9).Level1Blocks(); got != 9 {
		t.Errorf("level-1 blocks = %d, want 9", got)
	}
}

func TestTransferStallScalesWithParallelism(t *testing.T) {
	m10 := steaneMachine(36)
	cfg := paper(ecc.Steane(), 36)
	cfg.ParallelTransfers = 5
	m5 := mustMachine(cfg)
	if m5.TransferStall() <= m10.TransferStall() {
		t.Error("fewer parallel transfers should stall longer")
	}
	ratio := float64(m5.TransferStall()) / float64(m10.TransferStall())
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("stall ratio = %.2f, want ~2", ratio)
	}
}

func TestBaconShorPaysChannelPenalty(t *testing.T) {
	// Bacon-Shor needs 3 channels per transfer, so at equal network width
	// it completes fewer transfers per unit time; its stall advantage
	// comes only from the cheaper Table 3 round trip.
	st := steaneMachine(36)
	bs := bsMachine(36)
	// Steane round trip 1.9s at width 10; BS round trip 0.5s at width 10/3.
	// Net: BS stall should still be smaller but by less than the 3.8x
	// round-trip ratio.
	ratio := float64(st.TransferStall()) / float64(bs.TransferStall())
	if ratio < 1 || ratio > 3.8 {
		t.Errorf("Steane/BS stall ratio = %.2f, want within (1, 3.8)", ratio)
	}
}

func TestLevel1AdderFasterThanLevel2(t *testing.T) {
	adder := AdderKernel(256)
	for _, m := range []*Machine{steaneMachine(36), bsMachine(36)} {
		if m.AdderTimeL1(adder) >= m.AdderTimeL2(adder) {
			t.Errorf("%s: level-1 adder should be faster", m.Config().Code.Short)
		}
	}
}

func TestSpeedupL1InPaperBand(t *testing.T) {
	// Table 5: level-1 speedups between ~5 and ~18 at 10 parallel
	// transfers, roughly flat across adder sizes.
	for _, n := range Table5Sizes() {
		k := PaperBlockCounts()[n][0]
		st := steaneMachine(k)
		s := st.SpeedupL1(AdderKernel(n))
		if s < 5 || s > 25 {
			t.Errorf("n=%d: Steane L1 speedup %.1f outside band", n, s)
		}
	}
}

func TestAdderSpeedupIsWeightedMean(t *testing.T) {
	m := bsMachine(36)
	adder := AdderKernel(256)
	want := (2*m.SpeedupL2(adder) + m.SpeedupL1(adder)) / 3
	if got := m.AdderSpeedup(adder); got != want {
		t.Errorf("adder speedup %.3f != weighted mean %.3f", got, want)
	}
}

func TestQLAAdderTimeUsesDepth(t *testing.T) {
	m := steaneMachine(36)
	adder := AdderKernel(64)
	if m.QLAAdderTime(adder) != m.Baseline().AdderTime(adder.DAG().Depth()) {
		t.Error("QLA adder time should be depth x baseline slot")
	}
}

func TestSlotTimes(t *testing.T) {
	m := steaneMachine(9)
	if m.SlotTime(1) >= m.SlotTime(2) {
		t.Error("level-1 slots must be faster than level-2")
	}
}

// TestNewValidation: the configuration is literal, so every zero value
// that used to select a default is now rejected (except TransferOverlap,
// whose zero means no overlap), as are out-of-range values.
func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
		frag string
	}{
		{"nil code", func(c *Config) { c.Code = nil }, "nil code"},
		{"zero blocks", func(c *Config) { c.ComputeBlocks = 0 }, "compute blocks"},
		{"zero transfers", func(c *Config) { c.ParallelTransfers = 0 }, "parallel transfers"},
		{"zero cache factor", func(c *Config) { c.CacheFactor = 0 }, "cache factor"},
		{"NaN cache factor", func(c *Config) { c.CacheFactor = math.NaN() }, "cache factor"},
		{"negative overlap", func(c *Config) { c.TransferOverlap = -1 }, "overlap"},
		{"overlap above one", func(c *Config) { c.TransferOverlap = 1.5 }, "overlap"},
	} {
		cfg := paper(ecc.Steane(), 4)
		c.edit(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: Validate() = %v, want mention of %q", c.name, err, c.frag)
		}
	}
	for _, overlap := range []float64{0, 1} {
		cfg := paper(ecc.Steane(), 4)
		cfg.TransferOverlap = overlap
		if err := cfg.Validate(); err != nil {
			t.Errorf("overlap %g rejected: %v", overlap, err)
		}
	}
}

// TestNewMachineErrors: NewMachine returns Validate's error, and a valid
// configuration is kept exactly as given — a zero TransferOverlap models
// no overlap, stalling ten times longer than the paper's 0.9.
func TestNewMachineErrors(t *testing.T) {
	zero := Config{Code: ecc.Steane(), Params: phys.Projected(), ComputeBlocks: 4}
	if _, err := NewMachine(zero); err == nil || err.Error() != zero.Validate().Error() {
		t.Errorf("zero transfers and cache factor: err = %v, want Validate's %v", err, zero.Validate())
	}
	cfg := paper(ecc.Steane(), 4)
	cfg.TransferOverlap = 0
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if m.Config() != cfg {
		t.Errorf("config %+v, want it kept as given %+v", m.Config(), cfg)
	}
	r := float64(m.TransferStall()) / float64(steaneMachine(4).TransferStall())
	if r < 9.99 || r > 10.01 {
		t.Errorf("zero-overlap stall should be 10x the 0.9-overlap stall, got %.3fx", r)
	}
}

// TestTransferStallExactCeiling pins the batch count at the divisibility
// boundary: when the cache qubits divide the effective transfer width
// exactly, the stall must correspond to exactly qubits/width batches — the
// old float-epsilon ceiling (+0.999999) must not round an extra batch in,
// and the integer ceiling must not drop one.
func TestTransferStallExactCeiling(t *testing.T) {
	rt := transfer.RoundTrip(
		transfer.Enc(ecc.Steane(), 2),
		transfer.Enc(ecc.Steane(), 1),
	)
	stallFor := func(parallel int) time.Duration {
		// One block, cache factor 1: exactly BlockDataQubits (9) cache
		// qubits; Steane needs one channel per transfer.
		cfg := paper(ecc.Steane(), 1)
		cfg.ParallelTransfers = parallel
		cfg.CacheFactor = 1
		return mustMachine(cfg).TransferStall()
	}
	batchesFor := func(parallel int) float64 {
		return float64(stallFor(parallel)) / ((1 - TransferOverlap) * float64(rt))
	}
	// 9 qubits over width 9: exactly one batch, not two.
	if got := batchesFor(9); got < 0.99 || got > 1.01 {
		t.Errorf("9 qubits / width 9 = %.4f batches, want exactly 1", got)
	}
	// 9 qubits over width 3: exactly three batches.
	if got := batchesFor(3); got < 2.99 || got > 3.01 {
		t.Errorf("9 qubits / width 3 = %.4f batches, want exactly 3", got)
	}
	// 9 qubits over width 8: one qubit spills into a second batch.
	if got := batchesFor(8); got < 1.99 || got > 2.01 {
		t.Errorf("9 qubits / width 8 = %.4f batches, want exactly 2", got)
	}
}

// TestAdderMemoization pins the stateless-machine contract: one adder plan
// shared by machines of different block budgets (and so holding several
// memoized makespans) prices every machine exactly as a fresh plan does.
func TestAdderMemoization(t *testing.T) {
	shared := AdderKernel(64)
	for _, blocks := range []int{4, 9, 36, 100, 9} {
		m := bsMachine(blocks)
		fresh := AdderKernel(64)
		if got, want := m.AdderTimeL2(shared), m.AdderTimeL2(fresh); got != want {
			t.Errorf("%d blocks: shared-plan L2 time %v, fresh plan %v", blocks, got, want)
		}
		if got, want := m.AdderTimeL1(shared), m.AdderTimeL1(fresh); got != want {
			t.Errorf("%d blocks: shared-plan L1 time %v, fresh plan %v", blocks, got, want)
		}
	}
}
