package cqla

import (
	"math"
	"time"

	"repro/internal/gen"
	"repro/internal/mesh"
	"repro/internal/sched"
)

// PaperBlockCounts returns the compute-block budgets the paper evaluates
// for each modular-exponentiation input size in Table 4 (two per size).
func PaperBlockCounts() map[int][2]int {
	return map[int][2]int{
		32:   {4, 9},
		64:   {9, 16},
		128:  {16, 25},
		256:  {36, 49},
		512:  {64, 81},
		1024: {100, 121},
	}
}

// PaperInputSizes returns Table 4's input sizes in ascending order.
func PaperInputSizes() []int { return []int{32, 64, 128, 256, 512, 1024} }

// Table5Sizes returns the adder sizes of Table 5.
func Table5Sizes() []int { return []int{256, 512, 1024} }

// Fig6aBlockCounts returns the x-axis of Figure 6(a).
func Fig6aBlockCounts() []int { return []int{4, 16, 36, 64, 100, 144, 196} }

// Fig6bBlockCounts returns the x-axis of Figure 6(b).
func Fig6bBlockCounts() []int {
	var counts []int
	for k := 4; k <= 80; k += 4 {
		counts = append(counts, k)
	}
	return counts
}

// Fig7Sizes returns the adder sizes of Figure 7.
func Fig7Sizes() []int { return []int{64, 128, 256, 512, 1024} }

// Fig8bSizes returns Figure 8(b)'s x-axis.
func Fig8bSizes() []int { return []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000} }

// AppTimes holds total computation and communication time for one problem
// size of an application (Figure 8).
type AppTimes struct {
	ProblemSize   int
	Computation   time.Duration
	Communication time.Duration
}

// ModExpTimes computes Figure 8(a)'s point for one input size n, given the
// n-bit adder kernel's plan: total computation and communication time of a
// full modular exponentiation on the Bacon-Shor CQLA. Computation is the adder calls divided across the
// concurrent additions a multiplication exposes; communication is the
// operand traffic through the compute-region perimeter, which the
// teleportation interconnect sustains without stalling computation.
func (m *Machine) ModExpTimes(n int, adder *sched.Plan) AppTimes {
	me := gen.NewModExp(n)
	adderTime := m.AdderTimeL2(adder)
	comp := time.Duration(float64(me.AdderCalls()) / float64(me.ConcurrentAdders()) * float64(adderTime))

	transport := mesh.TransportTime(m.cfg.Code, 2, m.cfg.Params)
	operands := 2*n + 1
	perimeterChannels := 4.0 * math.Sqrt(float64(m.cfg.ComputeBlocks))
	commPerAdder := float64(operands) * float64(transport) / perimeterChannels
	comm := time.Duration(float64(me.AdderCalls()) / float64(me.ConcurrentAdders()) * commPerAdder)
	return AppTimes{ProblemSize: n, Computation: comp, Communication: comm}
}

// QFTTimes computes Figure 8(b)'s point for one problem size: the quantum
// Fourier transform's all-to-all personalized communication against its
// light computation. Controlled rotations are not transversal and cost
// CPhaseSlots slots each; every gate's operand pair is teleported together
// once, so communication closely tracks computation.
func (m *Machine) QFTTimes(n int) AppTimes {
	gates := gen.QFTGateCount(n)
	comp := time.Duration(gates*CPhaseSlots) * m.SlotTime(2)
	comm := time.Duration(gates) * mesh.TransportTime(m.cfg.Code, 2, m.cfg.Params)
	return AppTimes{ProblemSize: n, Computation: comp, Communication: comm}
}
