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
// with Run (`cqla sweep -circuit file.qc`), whose per-sweep plan cache
// holds only this circuit, so the plan is keyed by its kernel identity
// (its name); a server keys each request's circuit by its text instead
// (requestExperiment). It is never registered, so its name cannot collide
// with built-ins.
func CircuitExperiment(name string, c *circuit.Circuit) (*Experiment, error) {
	plan, err := arch.PlanCircuit(name, c)
	if err != nil {
		return nil, err
	}
	return circuitExperiment(name, plan, planKey{kernel: plan.Workload().Kernel()}), nil
}

// requestCircuit is the name every serve request's circuit is planned and
// titled under.
const requestCircuit = "request"

// requestExperiment is CircuitExperiment for the circuit text of a serve
// request, planned through the server's plan cache: the text is parsed and
// planned only when the cache holds no plan under its digest, and a plan
// planned here enters the cache when the experiment's run first reads it.
// A text that fails to parse or plan returns its error and caches nothing.
func requestExperiment(plans *evalCache, text string) (*Experiment, error) {
	k := circuitPlanKey(text)
	plan := plans.cached(k)
	if plan == nil {
		c, err := circuit.ParseString(text)
		if err != nil {
			return nil, err
		}
		if plan, err = arch.PlanCircuit(requestCircuit, c); err != nil {
			return nil, err
		}
	}
	return circuitExperiment(requestCircuit, plan, k), nil
}

// circuitExperiment is the block-budget sweep of one compiled circuit.
// Every point reads the plan through its run's plan cache under key
// (In.circuitPlan), which adopts plan when the cache holds none.
func circuitExperiment(name string, plan *arch.WorkloadPlan, key planKey) *Experiment {
	return &Experiment{
		Name: "circuit",
		Title: fmt.Sprintf("custom circuit %q (%d qubits, %d instructions) across block budgets",
			name, plan.Bits(), plan.Instructions()),
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
			p, err := in.circuitPlan(key, plan)
			if err != nil {
				return nil, err
			}
			res, err := in.EvaluatePlan(ctx, m, p)
			if err != nil {
				return nil, err
			}
			return metricsFrom(res), nil
		},
	}
}
