package arch

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// Kind names a workload family the engines know how to evaluate.
type Kind string

const (
	// KindAdder is the paper's kernel: one n-bit carry-lookahead addition,
	// evaluated inside an n-bit modular exponentiation's memory footprint.
	KindAdder Kind = "adder"
	// KindModExp is the full modular exponentiation of Shor's algorithm at
	// n bits (Figure 8a's computation-vs-communication study).
	KindModExp Kind = "modexp"
	// KindQFT is the n-qubit quantum Fourier transform (Figure 8b's
	// communication-bound contrast).
	KindQFT Kind = "qft"
	// KindQFTComm is the QFT with explicit bit-reversal swap chains — the
	// communication-dominated variant of examples/qftcomm, where three-CNOT
	// swaps force nearest-neighbour data movement on top of the rotation
	// cascade.
	KindQFTComm Kind = "qftcomm"
	// KindShorStage is one controlled addition — the repeated stage of
	// Shor's modular exponentiation (gen.ControlledCarryLookahead), with
	// conditioned sum writes and control fan-out on top of the carry
	// network.
	KindShorStage Kind = "shor-stage"
	// KindCustom is a user-supplied circuit ingested via circuit.Parse;
	// custom workloads carry a Name and are compiled with PlanCircuit
	// rather than through the kernel registry.
	KindCustom Kind = "custom"
)

// kernelCircuits is the registry of built-in kernel builders keyed by kind.
// Adder and modexp share the carry-lookahead adder (the paper evaluates
// modular exponentiation as repeated additions). The map is assigned only
// at declaration and never mutated, so reads from the evaluation path stay
// pure.
var kernelCircuits = map[Kind]func(bits int) *circuit.Circuit{
	KindAdder:     claAdder,
	KindModExp:    claAdder,
	KindQFT:       func(bits int) *circuit.Circuit { return gen.QFT(bits, false) },
	KindQFTComm:   func(bits int) *circuit.Circuit { return gen.QFT(bits, true) },
	KindShorStage: func(bits int) *circuit.Circuit { return gen.ControlledCarryLookahead(bits).Circuit },
}

func claAdder(bits int) *circuit.Circuit { return gen.CarryLookahead(bits).Circuit }

// Kinds returns the built-in workload kinds in presentation order (KindCustom
// excluded — custom workloads are constructed from a circuit, not a kind).
func Kinds() []Kind {
	return []Kind{KindAdder, KindModExp, KindQFT, KindQFTComm, KindShorStage}
}

// Workload describes what the machine is asked to run.
type Workload struct {
	// Kind selects the workload family.
	Kind Kind
	// Bits is the problem size: adder/modexp input bits, QFT width, or a
	// custom circuit's register width.
	Bits int
	// Hierarchy includes the level-1 cache + compute tier in area and
	// blended-speedup metrics (Table 5's view rather than Table 4's).
	Hierarchy bool
	// Name identifies a custom circuit; it must be empty for built-in
	// kinds and non-empty for KindCustom.
	Name string
}

// NewAdder describes one n-bit addition, with or without the memory
// hierarchy's level-1 tier.
func NewAdder(bits int, hierarchy bool) Workload {
	return Workload{Kind: KindAdder, Bits: bits, Hierarchy: hierarchy}
}

// NewModExp describes an n-bit modular exponentiation.
func NewModExp(bits int) Workload { return Workload{Kind: KindModExp, Bits: bits} }

// NewQFT describes an n-qubit quantum Fourier transform.
func NewQFT(bits int) Workload { return Workload{Kind: KindQFT, Bits: bits} }

// NewKind describes an n-bit instance of any built-in kind — the uniform
// constructor the workload axes of sweeps use.
func NewKind(kind Kind, bits int) Workload { return Workload{Kind: kind, Bits: bits} }

// Kernel returns the identity of the kernel plan the workload compiles to —
// the key under which plans are shareable. Adder and modexp collapse onto
// the one shared carry-lookahead kernel (the paper evaluates modular
// exponentiation as repeated additions); custom workloads are distinguished
// by name.
func (w Workload) Kernel() string {
	switch w.Kind {
	case KindAdder, KindModExp:
		return string(KindAdder)
	case KindCustom:
		return "custom:" + w.Name
	default:
		return string(w.Kind)
	}
}

// Validate reports whether the workload is well-formed.
func (w Workload) Validate() error {
	switch w.Kind {
	case KindCustom:
		if w.Name == "" {
			return fmt.Errorf("arch: custom workload needs a name")
		}
		if w.Bits < 1 {
			return fmt.Errorf("arch: custom workload %q over %d qubits, need at least 1", w.Name, w.Bits)
		}
		return nil
	case KindAdder, KindModExp, KindQFT, KindQFTComm, KindShorStage:
		if w.Name != "" {
			return fmt.Errorf("arch: only custom workloads carry a name, got %q on kind %s", w.Name, w.Kind)
		}
	default:
		return fmt.Errorf("arch: unknown workload kind %q", w.Kind)
	}
	if w.Bits < 2 {
		return fmt.Errorf("arch: %s workload of %d bits, need at least 2", w.Kind, w.Bits)
	}
	return nil
}
