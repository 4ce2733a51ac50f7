package arch_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/arch"
)

// ExampleNew evaluates the paper's best working point — the 256-bit
// Bacon-Shor CQLA with the memory hierarchy — through the analytic engine
// and reads two headline metrics from the Result envelope.
func ExampleNew() {
	m, err := arch.New(
		arch.WithCodeName("bacon-shor"),
		arch.WithBlocks(36),
		arch.WithTransfers(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineAnalytic)
	if err != nil {
		log.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(256, true))
	if err != nil {
		log.Fatal(err)
	}
	res, err := arch.EvaluateCompiled(context.Background(), eng, cw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s v%d: area x%.1f, adder speedup x%.1f\n",
		res.Engine, res.SchemaVersion,
		res.MustMetric("area_reduction"), res.MustMetric("adder_speedup"))
	// Output: analytic v1: area x7.8, adder speedup x7.6
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

// ExampleMachine_Compile is the intended hot-loop shape: compile a
// workload once, then evaluate the compiled form many times. Every
// evaluation skips circuit generation, DAG construction and scheduling and
// returns the same envelope.
func ExampleMachine_Compile() {
	m, err := arch.New(
		arch.WithCodeName("bacon-shor"),
		arch.WithBlocks(36),
		arch.WithTransfers(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineAnalytic)
	if err != nil {
		log.Fatal(err)
	}
	cw, err := m.Compile(arch.NewKind(arch.KindQFTComm, 64))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	again, _ := arch.EvaluateCompiled(ctx, eng, cw)
	res, err := arch.EvaluateCompiled(ctx, eng, cw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.0f slots, speedup x%.2f, repeatable %v\n",
		res.Workload.Kind, res.MustMetric("makespan_slots"),
		res.MustMetric("parallel_speedup"),
		res.MustMetric("makespan_slots") == again.MustMetric("makespan_slots"))
	// Output: qftcomm: 130 slots, speedup x16.74, repeatable true
}

// ExampleEvaluateCompiled sizes the paper's best configuration — Bacon-Shor
// regions, 36 compute blocks, ten parallel transfers — for a 256-bit
// workload without the memory hierarchy and prints its Table 4 figures of
// merit against the QLA.
func ExampleEvaluateCompiled() {
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(36), arch.WithTransfers(10))
	if err != nil {
		log.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineAnalytic)
	if err != nil {
		log.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(256, false))
	if err != nil {
		log.Fatal(err)
	}
	res, err := arch.EvaluateCompiled(context.Background(), eng, cw)
	if err != nil {
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
