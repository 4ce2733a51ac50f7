// Package qla models the baseline Quantum Logic Array — the authors' prior
// homogeneous "sea of qubits" architecture (MICRO-38) that every CQLA
// result in Tables 4 and 5 is normalized against. In the QLA every logical
// data qubit carries two logical ancilla qubits (a 1:2 data:ancilla ratio),
// computation can happen anywhere, and the floorplan surrounds every tile
// with teleportation channels and repeater islands to sustain maximal
// parallelism; its gain product is 1.0 by definition.
package qla

import (
	"time"

	"repro/internal/ecc"
	"repro/internal/phys"
)

// AncillaPerData is the QLA's logical ancilla provisioning per data qubit.
const AncillaPerData = 2

// InterconnectFactor inflates per-tile area for the channels and
// teleportation islands that maximal parallelism requires on every side of
// every tile (calibrated so the specialization factors of Table 4 are
// reproduced; see "Calibrated constants" in docs/ARCHITECTURE.md).
const InterconnectFactor = 3.5

// Model is a QLA instance: a code (always Steane in the paper) at a
// concatenation level on a technology point.
type Model struct {
	Code   *ecc.Code
	Level  int
	Params phys.Params
}

// NewWith returns the paper's baseline, Steane [[7,1,3]] at level 2, at
// the given technology point (the paper uses phys.Projected()), so a CQLA
// evaluated on currently demonstrated parameters is normalized against a
// QLA built from the same technology rather than always the projected one.
func NewWith(p phys.Params) Model {
	return Model{Code: ecc.Steane(), Level: 2, Params: p}
}

// TileAreaMM2 returns the area of one logical data qubit with its two
// logical ancilla and surrounding interconnect.
func (m Model) TileAreaMM2() float64 {
	return (1 + AncillaPerData) * m.Code.AreaMM2(m.Level, m.Params) * InterconnectFactor
}

// AreaMM2 returns the floorplan area for the given number of logical data
// qubits.
func (m Model) AreaMM2(logicalQubits int) float64 {
	return float64(logicalQubits) * m.TileAreaMM2()
}

// SlotTime returns the duration of one two-qubit-gate slot: computation is
// dominated by the error correction following every logical gate, and
// communication is fully overlapped with it by the integrated repeater
// interconnect.
func (m Model) SlotTime() time.Duration {
	return m.Code.ECTime(m.Level, m.Params)
}

// AdderTime returns the QLA execution time of a circuit with the given
// critical-path length in slots: with computation possible at every qubit,
// the QLA achieves the unlimited-parallelism schedule.
func (m Model) AdderTime(depthSlots int) time.Duration {
	return time.Duration(depthSlots) * m.SlotTime()
}

// GainProduct is 1.0: the QLA is the normalization point.
const GainProduct = 1.0
