// Quickstart: generate a quantum adder, prove it adds, and place it on a
// CQLA. This walks the library's main path end to end:
//
//  1. gen builds the Draper-style carry-lookahead adder circuit;
//  2. circuit+quantum verify it functionally on a state vector;
//  3. sched maps it onto a bounded set of compute blocks;
//  4. arch evaluates it on a CQLA: area and time against the QLA
//     baseline.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/sched"
)

func main() {
	// 1. Functional proof on a small instance: 2+3 on a 2-bit adder.
	small := gen.CarryLookahead(2)
	input := uint64(0)
	a, b := uint64(2), uint64(3)
	for i := 0; i < small.N; i++ {
		if a>>uint(i)&1 == 1 {
			input |= 1 << uint(small.A[i])
		}
		if b>>uint(i)&1 == 1 {
			input |= 1 << uint(small.B[i])
		}
	}
	state, err := circuit.Simulate(small.Circuit, input, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	out, p := state.DominantBasisState()
	var sum uint64
	for i, q := range small.Sum {
		if out>>uint(q)&1 == 1 {
			sum |= 1 << uint(i)
		}
	}
	fmt.Printf("state-vector check: %d + %d = %d (probability %.3f)\n", a, b, sum, p)

	// 2. The architecture-scale instance: a 64-bit adder.
	adder := gen.CarryLookahead(64)
	stats := adder.Circuit.Stats()
	dag := circuit.BuildDAG(adder.Circuit)
	fmt.Printf("\n64-bit carry-lookahead adder: %d logical qubits, %d instructions (%d Toffolis)\n",
		stats.Qubits, stats.Instructions, stats.Toffolis)
	fmt.Printf("critical path %d slots; peak parallelism %d gates\n", dag.Depth(), dag.MaxParallelism())

	// 3. Schedule onto a handful of compute blocks.
	for _, blocks := range []int{4, 15, 25} {
		r := sched.ListSchedule(dag, blocks)
		fmt.Printf("  %2d blocks: makespan %4d slots, utilization %.2f\n",
			blocks, r.MakespanSlots, r.Utilization())
	}

	// 4. Size the machine and evaluate the adder on it.
	machine, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(15), arch.WithTransfers(10))
	if err != nil {
		log.Fatal(err)
	}
	cw, err := machine.Compile(arch.NewAdder(64, false))
	if err != nil {
		log.Fatal(err)
	}
	var res arch.Result
	if err := cw.Evaluate(context.Background(), arch.EngineAnalytic, &res); err != nil {
		log.Fatal(err)
	}
	qubits := gen.NewModExp(64).LogicalQubits() // the workload's memory footprint
	fmt.Printf("\nCQLA (Bacon-Shor, 15 blocks) for a 64-bit workload:\n")
	fmt.Printf("  area        %8.1f mm²  (QLA baseline %.1f mm², %.1fx denser)\n",
		machine.Analytic().AreaMM2(qubits, false), machine.Analytic().Baseline().AreaMM2(qubits),
		res.MustMetric("area_reduction"))
	fmt.Printf("  adder time  %8.1f s    (QLA %.1f s, speedup %.2fx)\n",
		res.MustMetric("l2_time_s"), res.MustMetric("qla_time_s"), res.MustMetric("l2_speedup"))
	fmt.Printf("  gain product %.1f (QLA = 1.0)\n", res.MustMetric("gain_product"))
}
