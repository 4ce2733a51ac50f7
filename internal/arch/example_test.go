package arch_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/arch"
)

// ExampleNew builds the paper's best working point — Bacon-Shor regions,
// 36 compute blocks, ten parallel transfers — compiles the 256-bit adder
// with the memory hierarchy on it, and evaluates the compiled workload on
// both engines with the one evaluation call.
func ExampleNew() {
	m, err := arch.New(
		arch.WithCodeName("bacon-shor"),
		arch.WithBlocks(36),
		arch.WithTransfers(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(256, true))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var res arch.Result
	if err := cw.Evaluate(ctx, arch.EngineAnalytic, &res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analytic: area x%.1f, adder speedup x%.1f\n",
		res.MustMetric("area_reduction"), res.MustMetric("adder_speedup"))
	if err := cw.Evaluate(ctx, arch.EngineDES, &res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("des: makespan %.0f s, communication hidden %.2f\n",
		res.MustMetric("makespan_s"), res.MustMetric("communication_hidden"))
	// Output:
	// analytic: area x7.8, adder speedup x7.6
	// des: makespan 281 s, communication hidden 0.78
}

// ExamplePlanWorkload plans a registry kernel: the machine-independent
// dependency DAG, shared by every machine that later binds it and built on
// its first read. Adder and modexp plans are interchangeable (same
// carry-lookahead kernel); every other kind owns its DAG.
func ExamplePlanWorkload() {
	plan, err := arch.PlanWorkload(arch.NewQFT(8))
	if err != nil {
		log.Fatal(err)
	}
	d := plan.DAG(context.Background())
	fmt.Printf("kernel %s at %d bits: %d serial slots, critical path %d\n",
		plan.Kernel(), plan.Bits(), d.TotalSlots(), d.Depth())
	// Output: kernel qft at 8 bits: 36 serial slots, critical path 15
}

// ExampleMachine_Compile is the intended hot-loop shape: plan a kernel
// once, bind the plan to each machine once, then evaluate each binding
// many times into one reused Result. A repeated evaluation skips circuit
// generation, DAG construction, scheduling and simulation, and on the des
// engine allocates nothing.
func ExampleMachine_Compile() {
	w := arch.NewAdder(64, false)
	plan, err := arch.PlanWorkload(w) // once per kernel
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var res arch.Result
	for _, blocks := range []int{4, 9} {
		m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(blocks))
		if err != nil {
			log.Fatal(err)
		}
		cw, err := m.CompileWith(w, plan) // once per machine
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 3; i++ { // the hot loop reuses res
			if err := cw.Evaluate(ctx, arch.EngineDES, &res); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%d blocks: makespan %.0f s, block utilization %.2f\n",
			blocks, res.MustMetric("makespan_s"), res.MustMetric("block_utilization"))
	}
	// Output:
	// 4 blocks: makespan 219 s, block utilization 0.92
	// 9 blocks: makespan 115 s, block utilization 0.78
}

// ExampleCompiledWorkload_Evaluate sizes the paper's best configuration —
// Bacon-Shor regions, 36 compute blocks, ten parallel transfers — for a
// 256-bit workload without the memory hierarchy and prints its Table 4
// figures of merit against the QLA.
func ExampleCompiledWorkload_Evaluate() {
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(36), arch.WithTransfers(10))
	if err != nil {
		log.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(256, false))
	if err != nil {
		log.Fatal(err)
	}
	var res arch.Result
	if err := cw.Evaluate(context.Background(), arch.EngineAnalytic, &res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("area reduction: %.1fx\n", res.MustMetric("area_reduction"))
	fmt.Printf("L2 speedup:     %.2fx\n", res.MustMetric("l2_speedup"))
	fmt.Printf("gain product:   %.1f\n", res.MustMetric("gain_product"))
	// Output:
	// area reduction: 8.3x
	// L2 speedup:     1.92x
	// gain product:   16.0
}
