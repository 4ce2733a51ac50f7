package shor

import (
	"repro/internal/circuit"
	"repro/internal/gen"
)

// StageCircuit returns the repeated stage of Shor's modular exponentiation
// at n bits: one controlled carry-lookahead addition, the unit the paper
// schedules ("quantum modular exponentiation is performed by repeated
// quantum additions"). It is the kernel behind the arch package's
// "shor-stage" workload kind — Toffoli-heavy like the plain adder but with
// the extra conditioned sum writes and control fan-out, so it exercises a
// different parallelism profile than the unconditioned kernel.
func StageCircuit(n int) *circuit.Circuit {
	return gen.ControlledCarryLookahead(n).Circuit
}
