// Package cqla is the core of the reproduction: the Compressed Quantum
// Logic Array architecture model. A Machine composes the substrate
// packages — ion-trap physics (phys), error-correction codes (ecc), circuit
// generation (gen), compute-block scheduling (sched), the teleportation
// mesh (mesh), code-transfer networks (transfer), the qubit cache (cache)
// and the fault-tolerance budget (fidelity) — into the area and performance
// models behind Tables 4 and 5 and Figures 2, 6, 7 and 8 of the paper.
// The package is the machine model and the paper's axis values only: each
// table and figure is produced by its registered sweep in internal/explore.
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
	// against Table 4; see DESIGN.md).
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
	// NoTransferOverlap is the Config.TransferOverlap value selecting no
	// overlap at all. The field's zero value means "paper default", so
	// literal zero overlap needs a distinct (negative) sentinel.
	NoTransferOverlap = -1.0
	// MaxSuperblockBlocks caps the level-1 compute region at one
	// superblock: past 36 blocks a superblock's perimeter bandwidth can no
	// longer feed its blocks (the Figure 6(b) crossover), so the fast tier
	// never grows beyond it regardless of problem size.
	MaxSuperblockBlocks = 36
)

// Config selects a CQLA instance.
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
	// region's data qubits. The zero value selects the paper's default
	// (the CacheFactor constant); design-space sweeps set it explicitly.
	CacheFactor float64
	// TransferOverlap is the fraction of memory<->cache transfer latency
	// the static schedule hides under surrounding level-2 additions. The
	// zero value selects the paper's default (the TransferOverlap
	// constant); pass a negative value to model no overlap at all (it is
	// clamped to 0).
	TransferOverlap float64
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

// NewMachine returns a Machine for the given configuration, or an error
// describing what is wrong with it. The Config retains its historical
// zero-value sentinels (zero CacheFactor and TransferOverlap select the
// paper defaults; NoTransferOverlap selects literal zero overlap); the
// sentinel-free construction path is arch.New in internal/arch.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Code == nil {
		return nil, fmt.Errorf("cqla: nil code")
	}
	if cfg.ComputeBlocks < 1 {
		return nil, fmt.Errorf("cqla: %d compute blocks", cfg.ComputeBlocks)
	}
	if cfg.ParallelTransfers < 1 {
		cfg.ParallelTransfers = 1
	}
	if cfg.CacheFactor <= 0 {
		cfg.CacheFactor = CacheFactor
	}
	switch {
	case cfg.TransferOverlap == 0:
		cfg.TransferOverlap = TransferOverlap
	case cfg.TransferOverlap < 0:
		cfg.TransferOverlap = 0
	case cfg.TransferOverlap > 1:
		return nil, fmt.Errorf("cqla: transfer overlap %g > 1", cfg.TransferOverlap)
	}
	return &Machine{cfg: cfg, baseline: qla.NewWith(cfg.Params)}, nil
}

// New is NewMachine for call sites that treat a bad configuration as a
// programmer error: it panics instead of returning the error.
func New(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err.Error())
	}
	return m
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
	return full * (data + anc/MemoryShareRatio) / total
}

// ComputeAreaMM2 returns the area of the level-2 compute region: blocks of
// 9 data + 18 ancilla logical qubits with their interconnect.
func (m *Machine) ComputeAreaMM2() float64 {
	perBlock := float64(BlockDataQubits+BlockAncillaQubits) * m.cfg.Code.AreaMM2(2, m.cfg.Params)
	return float64(m.cfg.ComputeBlocks) * perBlock * ComputeInterconnectFactor
}

// HierarchyAreaMM2 returns the additional area of the memory hierarchy: the
// level-1 compute blocks, the level-1 cache (CacheFactor times the level-1
// compute qubits) and the code-transfer network sites.
func (m *Machine) HierarchyAreaMM2() float64 {
	c := m.cfg.Code
	l1Qubit := c.AreaMM2(1, m.cfg.Params)
	l1Compute := float64(m.cfg.ComputeBlocks) * float64(BlockDataQubits+BlockAncillaQubits) * l1Qubit * ComputeInterconnectFactor
	cacheQubits := m.cfg.CacheFactor * float64(m.cfg.ComputeBlocks*BlockDataQubits)
	cacheArea := cacheQubits * l1Qubit
	transferArea := float64(m.cfg.ParallelTransfers) * (c.AreaMM2(2, m.cfg.Params) + l1Qubit)
	return l1Compute + cacheArea + transferArea
}

// AreaMM2 returns the CQLA floorplan area for an application with the given
// number of logical data qubits in memory; withHierarchy adds the level-1
// tier.
func (m *Machine) AreaMM2(logicalQubits int, withHierarchy bool) float64 {
	area := float64(logicalQubits)*m.MemoryTileAreaMM2() + m.ComputeAreaMM2()
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
// bandwidth crossover).
func (m *Machine) Level1Blocks() int {
	if m.cfg.ComputeBlocks > MaxSuperblockBlocks {
		return MaxSuperblockBlocks
	}
	return m.cfg.ComputeBlocks
}

// TransferStall returns the non-overlappable memory<->cache transfer time
// per level-1 addition: the level-1 cache (CacheFactor times the level-1
// region's data qubits) is refilled through the code-transfer network,
// whose effective width shrinks by the code's channel requirement; all but
// (1-TransferOverlap) of the latency hides under the surrounding level-2
// additions thanks to the static schedule. Because the level-1 region is
// capped at one superblock, the stall is independent of problem size —
// which is why the paper's level-1 speedups hold steady from 256 to 1024
// bits.
func (m *Machine) TransferStall() time.Duration {
	c := m.cfg.Code
	qubits := int(m.cfg.CacheFactor * float64(m.Level1Blocks()*BlockDataQubits))
	// Each transfer occupies ChannelsRequired network channels, so a batch
	// moves ParallelTransfers/ChannelsRequired qubits; the batch count is
	// the exact integer ceiling of qubits over that width.
	demand := qubits * c.ChannelsRequired()
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
