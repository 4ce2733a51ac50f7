// Shor: an end-to-end resource estimate for factoring an N-bit modulus on
// the CQLA — the workload the paper's whole design targets. For each
// architecture (homogeneous QLA, Steane CQLA, Bacon-Shor CQLA with the
// memory hierarchy) it reports the logical qubit count, floorplan area,
// the time of one modular exponentiation, and whether the fault-tolerance
// budget holds at the paper's 1:2 level-mix policy.
//
// Run with: go run ./examples/shor [bits]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/arch"
	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/fidelity"
	"repro/internal/gen"
	"repro/internal/phys"
)

func main() {
	bits := 1024
	if len(os.Args) > 1 {
		b, err := strconv.Atoi(os.Args[1])
		if err != nil || b < 8 {
			fmt.Fprintf(os.Stderr, "usage: shor [bits>=8]\n")
			os.Exit(2)
		}
		bits = b
	}
	p := phys.Projected()
	me := gen.NewModExp(bits)
	app := fidelity.ModExpAppSize(bits)
	blocks := cqla.PaperBlockCounts()
	k := nearestBlocks(blocks, bits)

	fmt.Printf("Factoring a %d-bit modulus (Shor's algorithm)\n", bits)
	fmt.Printf("  logical data qubits: %d\n", me.LogicalQubits())
	fmt.Printf("  modular multiplications: %d (%d additions each)\n",
		me.Multiplications(), me.AdditionsPerMultiplication())
	fmt.Printf("  fault-tolerance target: %.2g per logical operation (KQ = %.2g)\n\n",
		app.Target(), app.K*app.Q)

	adder := cqla.AdderKernel(bits)
	for _, name := range arch.CodeNames() {
		am, err := arch.New(arch.WithCodeName(name), arch.WithParams(p), arch.WithBlocks(k))
		if err != nil {
			log.Fatal(err)
		}
		m, code := am.Analytic(), am.Code()
		budget := fidelity.NewBudget(code, p.AverageFailure())
		level := code.MinLevelFor(app.Target(), p.AverageFailure(), 4)
		times := m.ModExpTimes(bits, adder)
		fmt.Printf("CQLA with %s (%d compute blocks):\n", code.Name, k)
		fmt.Printf("  concatenation level required: L%d (logical failure %.2g)\n",
			level, code.LogicalFailureRate(level, p.AverageFailure(), ecc.DefaultCommDistance))
		fmt.Printf("  area: %.2f m² (%.1fx denser than QLA)\n",
			m.AreaMM2(me.LogicalQubits(), true)/1e6, m.AreaReduction(me.LogicalQubits(), true))
		fmt.Printf("  one addition: %.1f s at L2, %.1f s at L1 (incl. transfers)\n",
			m.AdderTimeL2(adder).Seconds(), m.AdderTimeL1(adder).Seconds())
		fmt.Printf("  modular exponentiation: %.0f hours compute, %.0f hours communication\n",
			times.Computation.Hours(), times.Communication.Hours())
		safe := budget.MixMeetsTarget(1, 2, app)
		fmt.Printf("  1:2 level-mix fidelity check: safe=%v (mix failure %.2g vs target %.2g)\n",
			safe, budget.MixFailure(1, 2), app.Target())
		fmt.Printf("  gain product vs QLA: %.1f\n\n",
			m.GainProduct(adder, me.LogicalQubits(), true))
	}
}

// nearestBlocks picks the paper's block budget for the closest studied
// input size.
func nearestBlocks(table map[int][2]int, bits int) int {
	bestSize, bestDiff := 0, 1<<30
	for size := range table {
		d := size - bits
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			bestSize, bestDiff = size, d
		}
	}
	return table[bestSize][0]
}
