// Package phys models the physical layer of a trapped-ion quantum computer:
// the basic operations (gates, measurement, ballistic shuttling, splitting,
// sympathetic cooling), their durations and failure rates, and the geometry
// of the electrode array. The two parameter sets correspond to the two
// columns of Table 1 in the CQLA paper (ISCA 2006): currently achieved
// values measured at NIST with 9Be+ ions, and the projected values used for
// the architecture study (10-15 year ARDA roadmap extrapolation).
//
// All higher layers of the simulator consume physical behaviour exclusively
// through this package, so swapping in a different technology (neutral
// atoms, superconducting qubits with movable couplers, ...) only requires a
// new Params value.
package phys

import (
	"fmt"
	"time"
)

// Op enumerates the fundamental physical operations of the ion-trap
// microarchitecture. Each Op completes within a whole number of fundamental
// clock cycles (see Params.CycleTime).
type Op int

const (
	// SingleGate is a one-qubit rotation implemented by a laser pulse on a
	// single trapped ion.
	SingleGate Op = iota
	// DoubleGate is a two-qubit entangling gate (e.g. a geometric phase
	// gate) between two ions sharing a trapping region.
	DoubleGate
	// Measure is the projective readout of one ion by state-dependent
	// fluorescence.
	Measure
	// Move is a ballistic shuttle of one ion from a trapping region to an
	// adjacent one.
	Move
	// Split separates two ions held in the same trapping region so that one
	// of them can be shuttled away.
	Split
	// Cool is one round of sympathetic cooling using a refrigerant ion.
	Cool

	numOps
)

var opNames = [numOps]string{
	SingleGate: "single-gate",
	DoubleGate: "double-gate",
	Measure:    "measure",
	Move:       "move",
	Split:      "split",
	Cool:       "cool",
}

// String returns the conventional lower-case name of the operation.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("phys.Op(%d)", int(o))
	}
	return opNames[o]
}

// Ops returns every fundamental operation, in declaration order.
func Ops() []Op {
	ops := make([]Op, numOps)
	for i := range ops {
		ops[i] = Op(i)
	}
	return ops
}

// OpParams carries the duration and failure probability of one fundamental
// operation. A zero FailureRate means the operation is treated as error-free
// at this modeling granularity (the paper does not quote failure rates for
// splitting and cooling; their errors are folded into movement).
type OpParams struct {
	Time        time.Duration
	FailureRate float64
}

// Params is a complete description of an ion-trap technology point.
type Params struct {
	// Name identifies the parameter set in reports ("current", "projected").
	Name string

	// ops holds duration and failure rate per fundamental operation.
	ops [numOps]OpParams

	// MemoryTime is the idle coherence lifetime of a trapped-ion qubit.
	MemoryTime time.Duration

	// TrapSizeMicron is the pitch of a single trap electrode in microns.
	TrapSizeMicron float64

	// ElectrodesPerRegion is the number of electrodes making up one
	// trapping region (including its share of the crossing junction).
	ElectrodesPerRegion int

	// CycleTime is the fundamental time step of the microarchitecture: the
	// duration within which any unencoded logic operation, basic move, or
	// measurement completes. The CQLA study uses 10 µs.
	CycleTime time.Duration
}

// Current returns the experimentally demonstrated parameter set from
// Table 1 (NIST, 9Be+ data ions with 24Mg+ sympathetic cooling).
func Current() Params {
	p := Params{
		Name:                "current",
		MemoryTime:          10 * time.Second,
		TrapSizeMicron:      200,
		ElectrodesPerRegion: 10,
		CycleTime:           200 * time.Microsecond,
	}
	p.ops[SingleGate] = OpParams{1 * time.Microsecond, 1e-4}
	p.ops[DoubleGate] = OpParams{10 * time.Microsecond, 0.03}
	p.ops[Measure] = OpParams{200 * time.Microsecond, 0.01}
	// Table 1 quotes movement failure per micron: 0.005 over a 200 µm trap.
	p.ops[Move] = OpParams{20 * time.Microsecond, 0.005 * 200}
	p.ops[Split] = OpParams{200 * time.Microsecond, 0}
	p.ops[Cool] = OpParams{200 * time.Microsecond, 0}
	return p
}

// Projected returns the forward-looking parameter set used throughout the
// CQLA analysis: 10 µs fundamental cycle, 1e-8 single-qubit and measurement
// failure, 1e-7 two-qubit gate failure, and movement failure on the order of
// 1e-6 per fundamental move across a 5 µm trap.
func Projected() Params {
	p := Params{
		Name:                "projected",
		MemoryTime:          100 * time.Second,
		TrapSizeMicron:      5,
		ElectrodesPerRegion: 10,
		CycleTime:           10 * time.Microsecond,
	}
	p.ops[SingleGate] = OpParams{1 * time.Microsecond, 1e-8}
	p.ops[DoubleGate] = OpParams{10 * time.Microsecond, 1e-7}
	p.ops[Measure] = OpParams{10 * time.Microsecond, 1e-8}
	// One fundamental move spans a trapping region (~20 µm of transport
	// within a 50 µm pitch region); the paper budgets order 1e-6 each.
	p.ops[Move] = OpParams{10 * time.Microsecond, 1e-6}
	p.ops[Split] = OpParams{100 * time.Nanosecond, 0}
	p.ops[Cool] = OpParams{100 * time.Nanosecond, 0}
	return p
}

// Op returns the duration and failure rate of the given operation.
func (p Params) Op(o Op) OpParams {
	if o < 0 || o >= numOps {
		panic(fmt.Sprintf("phys: invalid op %d", int(o)))
	}
	return p.ops[o]
}

// SetOp overrides the parameters of one operation; it is intended for
// sensitivity studies ("what if CNOTs were 10x worse?").
func (p *Params) SetOp(o Op, v OpParams) {
	if o < 0 || o >= numOps {
		panic(fmt.Sprintf("phys: invalid op %d", int(o)))
	}
	p.ops[o] = v
}

// RegionPitchMicron is the linear dimension of one trapping region including
// its share of the crossing junction: electrode pitch times electrode count.
// With projected parameters this is the 50 µm used for area estimates.
func (p Params) RegionPitchMicron() float64 {
	return p.TrapSizeMicron * float64(p.ElectrodesPerRegion)
}

// RegionAreaMM2 is the area of a single trapping region in mm².
func (p Params) RegionAreaMM2() float64 {
	pitch := p.RegionPitchMicron() / 1000.0 // mm
	return pitch * pitch
}

// Duration converts a cycle count to wall-clock time.
func (p Params) Duration(cycles int) time.Duration {
	return time.Duration(cycles) * p.CycleTime
}

// AverageFailure returns the arithmetic mean of the failure probabilities of
// the gate-like operations (single gate, double gate, measure, move). The
// fidelity analysis (Gottesman's estimate, Eq. 1 of the paper) takes this
// mean as the effective per-component failure probability p0.
func (p Params) AverageFailure() float64 {
	ops := []Op{SingleGate, DoubleGate, Measure, Move}
	sum := 0.0
	for _, o := range ops {
		sum += p.ops[o].FailureRate
	}
	return sum / float64(len(ops))
}

// Validate reports whether the parameter set is internally consistent:
// positive durations and a cycle time no shorter than the longest
// single-cycle operation would require.
func (p Params) Validate() error {
	if p.CycleTime <= 0 {
		return fmt.Errorf("phys: non-positive cycle time %v", p.CycleTime)
	}
	if p.TrapSizeMicron <= 0 {
		return fmt.Errorf("phys: non-positive trap size %v", p.TrapSizeMicron)
	}
	if p.ElectrodesPerRegion <= 0 {
		return fmt.Errorf("phys: non-positive electrodes per region %d", p.ElectrodesPerRegion)
	}
	for o := Op(0); o < numOps; o++ {
		op := p.ops[o]
		if op.Time <= 0 {
			return fmt.Errorf("phys: non-positive duration for %v", o)
		}
		if op.FailureRate < 0 || op.FailureRate > 1 {
			return fmt.Errorf("phys: failure rate %g for %v outside [0,1]", op.FailureRate, o)
		}
	}
	return nil
}
