package ecc

import (
	"fmt"
	"math"
	"time"

	"repro/internal/phys"
)

// Metrics carries the architecture-level figures of merit for one code at
// one concatenation level — the rows of Table 2 in the paper.
type Metrics struct {
	Code  string
	Level int

	// ECTime is the duration of one full (bit-flip + phase-flip) error
	// correction round.
	ECTime time.Duration

	// TransversalGateTime is the duration of one logical transversal gate
	// including the error correction that must follow it.
	TransversalGateTime time.Duration

	// AreaMM2 is the physical footprint of one logical qubit, including
	// its error-correction ancilla, in mm².
	AreaMM2 float64

	// DataIons and AncillaIons are the physical qubit counts making up the
	// logical qubit ("Size, number of logical qubits" rows of Table 2).
	DataIons    int
	AncillaIons int
}

// ECTime returns the duration of one full error-correction round (both
// syndromes) at the given concatenation level under the given technology.
//
// Level 1 is extracted directly from the phase breakdown of the syndrome
// schedule. At higher levels each syndrome is a sequence of lower-level
// logical operations, so time multiplies by the per-level step count times
// the lower-level transversal gate time — this is the exponential growth in
// EC time the memory-hierarchy design exploits.
func (c *Code) ECTime(level int, p phys.Params) time.Duration {
	if level < 1 {
		panic(fmt.Sprintf("ecc: invalid concatenation level %d", level))
	}
	if level == 1 {
		perSyndrome := c.profile.syndromeCycles.Total()
		return p.Duration(2 * perSyndrome)
	}
	lower := c.TransversalGateTime(level-1, p)
	return time.Duration(2*c.profile.upperECSteps) * lower
}

// TransversalGateTime returns the duration of a logical transversal gate at
// the given level, including the mandatory trailing error correction. At
// level 1 the interaction itself is shuttle-dominated and costs about as
// much as the error correction that follows; at higher levels it is a
// sequence of level-(L-1) logical gates.
func (c *Code) TransversalGateTime(level int, p phys.Params) time.Duration {
	if level < 1 {
		panic(fmt.Sprintf("ecc: invalid concatenation level %d", level))
	}
	ec := c.ECTime(level, p)
	if level == 1 {
		interact := p.Duration(2 * c.profile.syndromeCycles.Total())
		return interact + ec
	}
	interact := time.Duration(c.profile.upperGateSteps) * c.TransversalGateTime(level-1, p)
	return interact + ec
}

// DataIons returns the number of physical data qubits in one level-L
// logical qubit: N^L.
func (c *Code) DataIons(level int) int {
	return intPow(c.N, level)
}

// AncillaIons returns the number of physical ancilla qubits accompanying a
// level-L logical qubit in a compute-grade (fast error correction) tile.
//
// Steane: ancilla triple the block at every level (7 EC + 7 verification +
// 7 cat-state ions per block), giving 21^L. Bacon-Shor: the block of
// (9 data + 12 ancilla) = 21 ions grows by a factor 18 per level (9 data +
// 9 ancilla units), giving 18^(L-1)x21 total ions.
func (c *Code) AncillaIons(level int) int {
	switch c.Short {
	case "[[7,1,3]]":
		return intPow(c.profile.ancillaGrowth, level)
	case "[[9,1,3]]":
		total := 21 * intPow(c.profile.ancillaGrowth, level-1)
		return total - c.DataIons(level)
	default:
		// Generic fallback: ancilla scale like (N + ancillaL1)^L - N^L.
		return intPow(c.N+c.profile.ancillaL1, level) - c.DataIons(level)
	}
}

// TotalIons returns data plus ancilla physical qubits at the given level.
func (c *Code) TotalIons(level int) int {
	return c.DataIons(level) + c.AncillaIons(level)
}

// AreaMM2 returns the layout footprint of one logical qubit at the given
// level: every physical ion occupies one trapping region, inflated by the
// code's layout factor for access channels and junction sharing.
func (c *Code) AreaMM2(level int, p phys.Params) float64 {
	return float64(c.TotalIons(level)) * p.RegionAreaMM2() * c.profile.layoutFactor
}

// Metrics assembles the full Table 2 row set for this code at one level.
func (c *Code) Metrics(level int, p phys.Params) Metrics {
	return Metrics{
		Code:                c.Short,
		Level:               level,
		ECTime:              c.ECTime(level, p),
		TransversalGateTime: c.TransversalGateTime(level, p),
		AreaMM2:             c.AreaMM2(level, p),
		DataIons:            c.DataIons(level),
		AncillaIons:         c.AncillaIons(level),
	}
}

// LogicalFailureRate evaluates Gottesman's local-architecture estimate
// (Equation 1 of the paper) for the failure probability of one logical
// operation at concatenation level L:
//
//	Pf = (pth / r^L) x (p0/pth)^(2^L)
//
// where p0 is the effective physical component failure rate, pth the code's
// threshold, and r the communication distance between level-1 blocks in
// cells (12 in the QLA floorplan).
func (c *Code) LogicalFailureRate(level int, p0 float64, r float64) float64 {
	if level < 0 {
		panic(fmt.Sprintf("ecc: invalid level %d", level))
	}
	if level == 0 {
		return p0
	}
	pth := c.profile.threshold
	exp := math.Pow(2, float64(level))
	return pth / math.Pow(r, float64(level)) * math.Pow(p0/pth, exp)
}

// DefaultCommDistance is the average communication distance, in cells,
// between level-1 blocks in the QLA floorplan (the r of Equation 1).
const DefaultCommDistance = 12.0

// MinLevelFor returns the smallest concatenation level whose logical
// failure rate meets the target (e.g. 1/KQ for an application with K time
// steps and Q logical qubits), or -1 if no level up to maxLevel does.
func (c *Code) MinLevelFor(target, p0 float64, maxLevel int) int {
	for l := 1; l <= maxLevel; l++ {
		if c.LogicalFailureRate(l, p0, DefaultCommDistance) <= target {
			return l
		}
	}
	return -1
}

func intPow(base, exp int) int {
	result := 1
	for i := 0; i < exp; i++ {
		result *= base
	}
	return result
}
