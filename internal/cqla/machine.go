// Package cqla is the core of the reproduction: the Compressed Quantum
// Logic Array architecture model. A Machine composes the substrate
// packages — ion-trap physics (phys), error-correction codes (ecc), circuit
// generation (gen), compute-block scheduling (sched), the teleportation
// mesh (mesh), code-transfer networks (transfer), the qubit cache (cache)
// and the fault-tolerance budget (fidelity) — into the area and performance
// models behind Tables 4 and 5 and Figures 2, 6, 7 and 8 of the paper.
// The package is the machine model and the paper's axis values only: each
// table and figure is produced by its registered sweep in internal/explore.
// Machines are built by arch.New; the discrete-event engine's residency
// and the internal/layout floorplan read their sizes from the Machine
// (CacheQubits and the region-area methods) rather than re-deriving them.
//
// The CQLA specializes the homogeneous QLA into:
//
//   - dense level-2 memory with an 8:1 data:ancilla ratio,
//   - level-2 compute blocks of 9 data + 18 ancilla logical qubits,
//   - a level-1 cache plus level-1 compute region fed by code-transfer
//     networks (the quantum memory hierarchy).
package cqla

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/ecc"
	"repro/internal/gen"
	"repro/internal/phys"
	"repro/internal/qla"
	"repro/internal/sched"
	"repro/internal/transfer"
)

// Architectural constants of the CQLA design.
const (
	// BlockDataQubits is the number of logical data qubits per compute
	// block; a block hosts one fault-tolerant Toffoli's worth of state.
	BlockDataQubits = 9
	// BlockAncillaQubits is the logical ancilla provisioning per compute
	// block (the 1:2 data:ancilla ratio of Figure 3).
	BlockAncillaQubits = 18
	// MemoryShareRatio is the memory's data:ancilla ratio (8:1): eight
	// logical data qubits share one logical ancilla's worth of
	// error-correction resources, exploiting long idle coherence times.
	MemoryShareRatio = 8
	// ComputeInterconnectFactor inflates compute-region area for the
	// channels surrounding blocks (calibrated with qla.InterconnectFactor
	// against Table 4; see "Calibrated constants" in docs/ARCHITECTURE.md).
	ComputeInterconnectFactor = 2.0
	// CacheFactor sizes the level-1 cache relative to the level-1 compute
	// region; Section 5.2 settles on twice the compute-region qubits.
	CacheFactor = 2.0
	// TransferOverlap is the fraction of memory<->cache transfer latency
	// hidden under surrounding level-2 additions by the static schedule;
	// only the remainder stalls the level-1 adder.
	TransferOverlap = 0.9
	// CPhaseSlots is the fault-tolerant cost of a controlled rotation in
	// two-qubit-gate slots (it is not transversal and decomposes into
	// CNOTs plus corrective single-qubit rotations).
	CPhaseSlots = 3
	// MaxSuperblockBlocks caps the level-1 compute region at one
	// superblock: past 36 blocks a superblock's perimeter bandwidth can no
	// longer feed its blocks (the Figure 6(b) crossover), so the fast tier
	// never grows beyond it regardless of problem size.
	MaxSuperblockBlocks = 36
)

// Config selects a CQLA instance. Every field is literal: there are no
// zero-value sentinels, so a zero CacheFactor or ParallelTransfers is
// rejected and a zero TransferOverlap models no overlap. arch.New fills in
// the paper's working point.
type Config struct {
	// Code is the error-correction code of the CQLA's regions (the QLA
	// baseline always uses Steane).
	Code *ecc.Code
	// Params is the ion-trap technology point.
	Params phys.Params
	// ComputeBlocks is the number of level-2 compute blocks.
	ComputeBlocks int
	// ParallelTransfers is the memory<->cache transfer-network width (the
	// "Par Xfer" of Table 5).
	ParallelTransfers int
	// CacheFactor sizes the level-1 cache relative to the level-1 compute
	// region's data qubits (the paper's is the CacheFactor constant).
	CacheFactor float64
	// TransferOverlap is the fraction, in [0, 1], of memory<->cache
	// transfer latency the static schedule hides under surrounding level-2
	// additions (the paper's is the TransferOverlap constant).
	TransferOverlap float64
}

// Validate reports what, if anything, makes the configuration unbuildable.
// The negated range checks reject NaN as well.
func (c Config) Validate() error {
	switch {
	case c.Code == nil:
		return fmt.Errorf("cqla: nil code")
	case c.ComputeBlocks < 1:
		return fmt.Errorf("cqla: %d compute blocks, need at least 1", c.ComputeBlocks)
	case c.ParallelTransfers < 1:
		return fmt.Errorf("cqla: %d parallel transfers, need at least 1", c.ParallelTransfers)
	case !(c.CacheFactor > 0):
		return fmt.Errorf("cqla: cache factor %g, need > 0", c.CacheFactor)
	case !(c.TransferOverlap >= 0 && c.TransferOverlap <= 1):
		return fmt.Errorf("cqla: transfer overlap %g outside [0, 1]", c.TransferOverlap)
	}
	return nil
}

// Machine is a configured CQLA with its QLA baseline. It holds no state
// beyond its configuration, so it is safe for concurrent use. The
// performance methods take the adder kernel's schedule plan as an argument
// (AdderKernel), so one plan serves every machine that evaluates it.
type Machine struct {
	cfg      Config
	baseline qla.Model
}

// AdderKernel compiles the n-bit carry-lookahead adder — the paper's
// kernel — into a schedule plan for the performance methods.
func AdderKernel(n int) *sched.Plan {
	return sched.NewPlan(circuit.BuildDAG(gen.CarryLookahead(n).Circuit))
}

// NewMachine returns a Machine for the given configuration, or the error
// Config.Validate reports. Outside tests, machines are built by arch.New,
// which starts from the paper's working point.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, baseline: qla.NewWith(cfg.Params)}, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Baseline returns the QLA model results are normalized against.
func (m *Machine) Baseline() qla.Model { return m.baseline }

// --- Area model ---------------------------------------------------------

// MemoryTileAreaMM2 returns the floorplan area of one logical data qubit in
// the dense memory region: the data block plus its 1/8 share of an
// error-correction ancilla block.
func (m *Machine) MemoryTileAreaMM2() float64 {
	c := m.cfg.Code
	full := c.AreaMM2(2, m.cfg.Params)
	data := float64(c.DataIons(2))
	anc := float64(c.AncillaIons(2))
	total := data + anc
	// anc/8 compiles to a multiply; float64(…) rounds it so that no GOARCH
	// fuses it into the add (scripts/fma-check.sh).
	return full * (data + float64(anc/MemoryShareRatio)) / total
}

// ComputeAreaMM2 returns the area of the level-2 compute region: blocks of
// 9 data + 18 ancilla logical qubits with their interconnect.
func (m *Machine) ComputeAreaMM2() float64 {
	perBlock := float64(BlockDataQubits+BlockAncillaQubits) * m.cfg.Code.AreaMM2(2, m.cfg.Params)
	// x*2 compiles to x+x; float64(…) keeps fusing GOARCHes from folding
	// the product into that add (scripts/fma-check.sh).
	return float64(float64(m.cfg.ComputeBlocks)*perBlock) * ComputeInterconnectFactor
}

// L1ComputeAreaMM2 returns the area of the level-1 compute region: blocks
// of level-1 qubits with the level-2 region's provisioning and
// interconnect. It is sized by the full block budget, while the
// performance model (Level1Blocks) and the discrete-event engine cap the
// level-1 region at one superblock; above MaxSuperblockBlocks the two
// disagree.
func (m *Machine) L1ComputeAreaMM2() float64 {
	l1Qubit := m.cfg.Code.AreaMM2(1, m.cfg.Params)
	// float64(…): see ComputeAreaMM2.
	return float64(float64(m.cfg.ComputeBlocks)*float64(BlockDataQubits+BlockAncillaQubits)*l1Qubit) * ComputeInterconnectFactor
}

// CacheAreaMM2 returns the area of the level-1 cache: CacheFactor times
// the data qubits of the full block budget, at level-1 tile size. Like
// L1ComputeAreaMM2 it ignores the superblock cap that CacheQubits applies,
// so above MaxSuperblockBlocks it is larger than the cache the performance
// model refills.
func (m *Machine) CacheAreaMM2() float64 {
	cacheQubits := m.cfg.CacheFactor * float64(m.cfg.ComputeBlocks*BlockDataQubits)
	return cacheQubits * m.cfg.Code.AreaMM2(1, m.cfg.Params)
}

// TransferAreaMM2 returns the area of the code-transfer network: one
// level-2 plus one level-1 qubit site per parallel transfer.
func (m *Machine) TransferAreaMM2() float64 {
	c := m.cfg.Code
	return float64(m.cfg.ParallelTransfers) * (c.AreaMM2(2, m.cfg.Params) + c.AreaMM2(1, m.cfg.Params))
}

// HierarchyAreaMM2 returns the additional area of the memory hierarchy:
// the level-1 compute region, the level-1 cache and the code-transfer
// network.
func (m *Machine) HierarchyAreaMM2() float64 {
	return m.L1ComputeAreaMM2() + m.CacheAreaMM2() + m.TransferAreaMM2()
}

// AreaMM2 returns the CQLA floorplan area for an application with the given
// number of logical data qubits in memory; withHierarchy adds the level-1
// tier.
func (m *Machine) AreaMM2(logicalQubits int, withHierarchy bool) float64 {
	area := float64(float64(logicalQubits)*m.MemoryTileAreaMM2()) + m.ComputeAreaMM2() // float64: no fused multiply-add
	if withHierarchy {
		area += m.HierarchyAreaMM2()
	}
	return area
}

// AreaReduction returns QLA area over CQLA area for the same application —
// the "Area Reduced (Factor of)" columns of Table 4.
func (m *Machine) AreaReduction(logicalQubits int, withHierarchy bool) float64 {
	return m.baseline.AreaMM2(logicalQubits) / m.AreaMM2(logicalQubits, withHierarchy)
}

// --- Performance model --------------------------------------------------

// SlotTime returns the per-slot cost at a concatenation level: computation
// is error-correction dominated, and communication overlaps with it.
func (m *Machine) SlotTime(level int) time.Duration {
	return m.cfg.Code.ECTime(level, m.cfg.Params)
}

// AdderTimeL2 returns the time of one carry-lookahead addition (the
// adder kernel's plan, AdderKernel) run entirely in the level-2 compute
// region.
func (m *Machine) AdderTimeL2(adder *sched.Plan) time.Duration {
	return time.Duration(adder.Makespan(m.cfg.ComputeBlocks)) * m.SlotTime(2)
}

// QLAAdderTime returns the baseline's time for the same addition: the QLA
// achieves the unlimited-parallelism schedule at Steane level-2 speed.
func (m *Machine) QLAAdderTime(adder *sched.Plan) time.Duration {
	return m.baseline.AdderTime(adder.Depth())
}

// SpeedupL2 returns the Table 4 speedup: QLA adder time over CQLA level-2
// adder time. For the Steane CQLA this is bounded by 1 (fewer blocks than
// the QLA's ubiquitous compute), while the Bacon-Shor CQLA gains its faster
// error correction.
func (m *Machine) SpeedupL2(adder *sched.Plan) float64 {
	return float64(m.QLAAdderTime(adder)) / float64(m.AdderTimeL2(adder))
}

// Level1Blocks returns the size of the level-1 compute region: the
// configured block budget capped at one superblock (the Figure 6(b)
// bandwidth crossover). The area model (L1ComputeAreaMM2) does not apply
// the cap.
func (m *Machine) Level1Blocks() int {
	if m.cfg.ComputeBlocks > MaxSuperblockBlocks {
		return MaxSuperblockBlocks
	}
	return m.cfg.ComputeBlocks
}

// CacheQubits returns the level-1 cache's capacity in logical qubits:
// CacheFactor times the level-1 region's data qubits. The transfer stall
// refills this many qubits, and the discrete-event engine holds them
// resident beside the compute region. Because Level1Blocks is capped at
// one superblock, the cache stops growing past MaxSuperblockBlocks, while
// CacheAreaMM2 keeps growing with the block budget.
func (m *Machine) CacheQubits() int {
	return int(m.cfg.CacheFactor * float64(m.Level1Blocks()*BlockDataQubits))
}

// TransferStall returns the non-overlappable memory<->cache transfer time
// per level-1 addition: the level-1 cache (CacheQubits) is refilled
// through the code-transfer network, whose effective width shrinks by the
// code's channel requirement; all but (1-TransferOverlap) of the latency
// hides under the surrounding level-2 additions thanks to the static
// schedule. Because the level-1 region is capped at one superblock, the
// stall is independent of problem size — which is why the paper's level-1
// speedups hold steady from 256 to 1024 bits.
func (m *Machine) TransferStall() time.Duration {
	c := m.cfg.Code
	// Each transfer occupies ChannelsRequired network channels, so a batch
	// moves ParallelTransfers/ChannelsRequired qubits; the batch count is
	// the exact integer ceiling of qubits over that width.
	demand := m.CacheQubits() * c.ChannelsRequired()
	batches := (demand + m.cfg.ParallelTransfers - 1) / m.cfg.ParallelTransfers
	rt := transfer.RoundTrip(transfer.Enc(c, 2), transfer.Enc(c, 1))
	return time.Duration((1 - m.cfg.TransferOverlap) * float64(batches) * float64(rt))
}

// AdderTimeL1 returns the time of one addition run in the level-1 compute
// region: the superblock-capped schedule at level-1 error-correction speed
// plus the transfer stall.
func (m *Machine) AdderTimeL1(adder *sched.Plan) time.Duration {
	compute := time.Duration(adder.Makespan(m.Level1Blocks())) * m.SlotTime(1)
	return compute + m.TransferStall()
}

// SpeedupL1 returns the level-1 speedup over the QLA baseline — the "L1
// SpeedUp" column of Table 5.
func (m *Machine) SpeedupL1(adder *sched.Plan) float64 {
	return float64(m.QLAAdderTime(adder)) / float64(m.AdderTimeL1(adder))
}

// AdderSpeedup returns the average per-addition speedup under the paper's
// fidelity-safe policy of one level-1 addition for every two level-2
// additions.
func (m *Machine) AdderSpeedup(adder *sched.Plan) float64 {
	return (2*m.SpeedupL2(adder) + m.SpeedupL1(adder)) / 3
}

// GainProduct returns (Area_QLA x Time_QLA) / (Area_CQLA x Time_CQLA)
// relative to the QLA's 1.0 — area reduction times speedup.
func (m *Machine) GainProduct(adder *sched.Plan, logicalQubits int, withHierarchy bool) float64 {
	speed := m.SpeedupL2(adder)
	if withHierarchy {
		speed = m.AdderSpeedup(adder)
	}
	return m.AreaReduction(logicalQubits, withHierarchy) * speed
}
