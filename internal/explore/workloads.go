package explore

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// kindNames lists the built-in workload kinds as axis values; the kind
// string resolves back through arch.NewKind, so the axis and the kernel
// registry share one vocabulary.
func kindNames() []string {
	kinds := arch.Kinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return names
}

// workloadsExp compares every built-in kernel on one fixed machine — the
// Figure 8 reference point (Bacon-Shor, 36 blocks, 10 transfers) — across
// problem sizes. It is the sweep the paper's "varying available
// parallelism" argument calls for: the Toffoli-heavy adders, the
// rotation-cascade QFT, its communication-dominated swap variant and the
// controlled Shor stage all run through the same compile → cache → engine
// pipeline, under whichever engine `-engine` selects.
func workloadsExp() *Experiment {
	return &Experiment{
		Name:  "workloads",
		Title: "built-in kernels compared on the fixed Figure-8 machine",
		Axes: []Axis{
			Strings("workload", kindNames()...),
			Ints("size", 16, 32, 64),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			m, err := in.Machine(
				arch.WithCodeName("bacon-shor"),
				arch.WithBlocks(36),
				arch.WithTransfers(10),
			)
			if err != nil {
				return nil, err
			}
			w := arch.NewKind(arch.Kind(in.Str("workload")), in.Int("size"))
			res, err := in.Evaluate(ctx, m, w)
			if err != nil {
				return nil, err
			}
			return metricsFrom(res), nil
		},
	}
}

// workloadBlocksExp puts the workload axis on a machine-backed sweep: every
// kernel at a fixed 64-bit size across the block-budget axis the pareto
// sweep uses, showing where each workload's parallelism saturates.
func workloadBlocksExp() *Experiment {
	return &Experiment{
		Name:  "workload-blocks",
		Title: "kernel scaling across compute-block budgets, 64-bit Bacon-Shor",
		Axes: []Axis{
			Strings("workload", kindNames()...),
			Ints("blocks", 4, 9, 16, 25, 36, 49, 64),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			m, err := in.Machine(
				arch.WithCodeName("bacon-shor"),
				arch.WithBlocks(in.Int("blocks")),
				arch.WithTransfers(10),
			)
			if err != nil {
				return nil, err
			}
			w := arch.NewKind(arch.Kind(in.Str("workload")), 64)
			res, err := in.Evaluate(ctx, m, w)
			if err != nil {
				return nil, err
			}
			return metricsFrom(res), nil
		},
	}
}

// CircuitExperiment builds an unregistered experiment evaluating one custom
// circuit — typically parsed from the text format by circuit.Parse — on the
// reference machine across the block-budget axis. The circuit compiles once
// (arch.PlanCircuit); every point binds the one plan to its machine with
// In.EvaluatePlan, exactly as registry kernels are bound. Callers run it
// directly (`cqla sweep -circuit file.qc`, the serve API's circuit field);
// it is never registered, so its name cannot collide with built-ins.
func CircuitExperiment(name string, c *circuit.Circuit) (*Experiment, error) {
	plan, err := arch.PlanCircuit(name, c)
	if err != nil {
		return nil, err
	}
	stats := c.Stats()
	return &Experiment{
		Name: "circuit",
		Title: fmt.Sprintf("custom circuit %q (%d qubits, %d instructions) across block budgets",
			name, stats.Qubits, stats.Instructions),
		Axes: []Axis{
			Ints("blocks", 4, 9, 16, 25, 36, 49, 64),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			m, err := in.Machine(
				arch.WithCodeName("bacon-shor"),
				arch.WithBlocks(in.Int("blocks")),
				arch.WithTransfers(10),
			)
			if err != nil {
				return nil, err
			}
			res, err := in.EvaluatePlan(ctx, m, plan)
			if err != nil {
				return nil, err
			}
			return metricsFrom(res), nil
		},
	}, nil
}
