// Package mesh models the CQLA's teleportation-based interconnect: the
// two-dimensional grid of teleportation islands that routes logical qubits
// between memory, cache and compute regions. It provides the EPR-channel
// and purification model, per-qubit logical transport time, the
// superblock perimeter-bandwidth analysis behind Figure 6(b), and the
// all-to-all personalized communication cost of the QFT (Figure 8(b)).
package mesh

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ecc"
	"repro/internal/phys"
)

// Mesh is a rectangular grid of logical-qubit sites connected by
// teleportation islands.
type Mesh struct {
	Rows, Cols int
}

// NewMeshFor returns the most nearly square mesh holding at least the given
// number of sites.
func NewMeshFor(sites int) Mesh {
	if sites < 1 {
		panic(fmt.Sprintf("mesh: need at least one site, got %d", sites))
	}
	r := int(math.Ceil(math.Sqrt(float64(sites))))
	c := (sites + r - 1) / r
	return Mesh{Rows: r, Cols: c}
}

// Bisection returns the bisection width in links (the smaller grid
// dimension) — the mesh's hard bandwidth ceiling for all-to-all traffic.
func (m Mesh) Bisection() int {
	if m.Rows < m.Cols {
		return m.Rows
	}
	return m.Cols
}

// PurifyFidelity applies one round of entanglement purification to an EPR
// pair of the given fidelity (the standard two-to-one recurrence: two pairs
// of fidelity f yield one pair of fidelity f²/(f² + (1-f)²), consuming the
// second pair).
func PurifyFidelity(f float64) float64 {
	if f <= 0 || f >= 1 {
		return f
	}
	return f * f / (f*f + (1-f)*(1-f))
}

// PurificationRounds returns how many purification rounds (each consuming
// half the pairs) raise a raw pair fidelity to at least the target, or -1
// if the raw fidelity is at or below 1/2 (purification then cannot help).
func PurificationRounds(raw, target float64) int {
	if raw <= 0.5 {
		return -1
	}
	rounds := 0
	f := raw
	for f < target {
		f = PurifyFidelity(f)
		rounds++
		if rounds > 64 {
			return -1
		}
	}
	return rounds
}

// TransportTime returns the time to teleport one logical qubit between
// regions of the same encoding: correlated-pair consumption, a transversal
// CNOT, measurement and the Pauli fix-up with its trailing error
// correction — about one transversal logical gate. Because EPR distribution
// through the repeater islands is pipelined underneath error correction,
// the figure is independent of distance ("the time to transport a single
// qubit stays constant immaterial of the problem size", Section 6).
func TransportTime(c *ecc.Code, level int, p phys.Params) time.Duration {
	return c.TransversalGateTime(level, p)
}

// Superblock models the bandwidth balance of a compute superblock — the
// square cluster of compute blocks whose size Figure 6(b) optimizes.
// Bandwidth is measured in logical qubits per two-qubit-gate slot.
type Superblock struct {
	// ChannelsPerEdge is the number of teleportation channels on each
	// block-width of superblock perimeter (2 in the paper's design).
	ChannelsPerEdge int
	// ChannelCapacity is the per-channel throughput in logical qubits per
	// slot (a qubit teleport costs about one transversal-gate time ~= 2 EC
	// rounds, giving ~0.45 qubit/slot once fix-up overlap is accounted).
	ChannelCapacity float64
	// DraperDemand is the perimeter traffic one busy compute block
	// generates while running carry-lookahead additions: the three Toffoli
	// operands stream in and out over the 15-slot Toffoli, plus cat-state
	// ancilla traffic.
	DraperDemand float64
	// WorstDemand is the worst-case traffic: all nine data qubits of the
	// block exchanged every Toffoli.
	WorstDemand float64
}

// DefaultSuperblock returns the calibration used in the paper's Figure
// 6(b) analysis: crossover at 36 blocks per superblock for either code.
func DefaultSuperblock() Superblock {
	return Superblock{
		ChannelsPerEdge: 2,
		ChannelCapacity: 0.45,
		DraperDemand:    0.6,
		WorstDemand:     2.4,
	}
}

// Available returns the perimeter bandwidth of a superblock of k compute
// blocks (arranged √k x √k): perimeter block-edges times channels times
// capacity.
func (s Superblock) Available(blocks int) float64 {
	if blocks < 1 {
		return 0
	}
	side := math.Sqrt(float64(blocks))
	// float64(…): a constant ChannelsPerEdge of 2 compiles to an add that
	// fusing GOARCHes would fold 4*side into (scripts/fma-check.sh).
	return float64(4*side) * float64(s.ChannelsPerEdge) * s.ChannelCapacity
}

// RequiredDraper returns the bandwidth demanded by k blocks running the
// Draper adder workload.
func (s Superblock) RequiredDraper(blocks int) float64 {
	return s.DraperDemand * float64(blocks)
}

// RequiredWorst returns the worst-case bandwidth demand.
func (s Superblock) RequiredWorst(blocks int) float64 {
	return s.WorstDemand * float64(blocks)
}

// Crossover returns the largest superblock size (in blocks) whose perimeter
// still satisfies the Draper-adder demand — past this point bigger
// superblocks are bandwidth-starved and it is better to build several
// smaller ones. The paper finds 36.
func (s Superblock) Crossover() int {
	k := 1
	for s.Available(k+1) >= s.RequiredDraper(k+1) {
		k++
		if k > 1<<20 {
			break
		}
	}
	return k
}

// AllToAllExchanges returns the number of pairwise personalized exchanges
// in an n-party all-to-all: n(n-1).
func AllToAllExchanges(n int) int { return n * (n - 1) }

// AllToAllTime returns the time for all-to-all personalized communication
// of n logical qubits on the mesh, following the pipelined all-port
// algorithm of Yang & Wang: total traffic n(n-1) qubit-transports spread
// over the bisection links, each transport costing one logical transport
// time.
func AllToAllTime(n int, c *ecc.Code, level int, p phys.Params) time.Duration {
	if n < 2 {
		return 0
	}
	m := NewMeshFor(n)
	transports := float64(AllToAllExchanges(n))
	perStep := float64(2 * m.Bisection()) // both directions across the cut
	steps := math.Ceil(transports / perStep)
	return time.Duration(steps) * TransportTime(c, level, p)
}
