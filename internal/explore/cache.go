package explore

import (
	"context"

	"repro/internal/arch"
	"repro/internal/memo"
	"repro/internal/obs"
)

// evalCache is the per-sweep evaluation cache the runner threads through
// every In: one kernel plan per (kernel, bits). A plan builds its circuit
// and DAG only when an engine first reads it, and it memoizes the kernel's
// list-scheduled makespans, so every point that evaluates the same kernel
// — every pareto point runs the one 256-bit adder on a different machine —
// shares that work. Plans are safe for concurrent use and deterministic:
// two caches (or none at all) produce byte-identical sweeps, which
// TestCacheTransparency pins.
//
// Machines and their compiled bindings are not cached: arch.New and
// Machine.CompileWith are cheap next to a kernel's DAG, and the points of
// a sweep almost never repeat a (machine, workload) pair.
//
// When the runner was given a metrics registry, the cache counts its hits
// and misses (cqla_evalcache_{hits,misses}_total, labeled by sweep and
// kind="plan"). The counters are nil — free — when observability is off.
// memo.Map builds are single-flight, so concurrent first callers of a key
// count one miss, for the caller that built it, and a hit for every
// caller that waited on that build.
type evalCache struct {
	plans                memo.Map[planKey, *arch.WorkloadPlan]
	planHits, planMisses *obs.Counter
}

// planKey identifies a kernel plan by kernel identity × width: adder and
// modexp workloads share the carry-lookahead kernel, every other kind has
// its own (arch.Workload.Kernel).
type planKey struct {
	kernel string
	bits   int
}

// newEvalCache returns the sweep's cache; reg may be nil (no metrics).
func newEvalCache(reg *obs.Registry, sweep string) *evalCache {
	c := &evalCache{}
	if reg != nil {
		c.planHits = reg.CounterVec("cqla_evalcache_hits_total",
			"Evaluation-cache hits by tier (plan).", "sweep", "kind").With(sweep, "plan")
		c.planMisses = reg.CounterVec("cqla_evalcache_misses_total",
			"Evaluation-cache misses by tier (plan).", "sweep", "kind").With(sweep, "plan")
	}
	return c
}

// Machine returns the unified-API machine at this design point, on the
// sweep's technology point.
func (in In) Machine(opts ...arch.Option) (*arch.Machine, error) {
	return arch.New(append([]arch.Option{arch.WithParams(in.Phys)}, opts...)...)
}

// Plan returns the machine-independent kernel plan for w, shared across the
// sweep through the per-sweep cache when the runner provided one and
// planned afresh otherwise. Its DAG is built on first read, recorded as a
// "dag-build" span, so a kernel the sweep's engine never reads (the
// analytic QFT) is never built.
func (in In) Plan(w arch.Workload) (*arch.WorkloadPlan, error) {
	if in.cache == nil {
		return arch.PlanWorkload(w)
	}
	c := in.cache
	built := false
	p, err := c.plans.Do(planKey{kernel: w.Kernel(), bits: w.Bits}, func() (*arch.WorkloadPlan, error) {
		built = true
		return arch.PlanWorkload(w)
	})
	if err != nil {
		return nil, err
	}
	if built {
		c.planMisses.Inc()
	} else {
		c.planHits.Inc()
	}
	return p, nil
}

// EvaluateOn routes a workload through the named engine: it binds the
// sweep's shared plan for w to m and evaluates the binding. Results are
// identical with or without the per-sweep cache. With a tracer in ctx
// (cqla sweep -trace), the plan lookup and binding are recorded as a
// "plan-compile" span, the evaluation as engine-level spans, and the
// engine that first reads the kernel records its build as "dag-build".
func (in In) EvaluateOn(ctx context.Context, m *arch.Machine, w arch.Workload, engine string) (arch.Result, error) {
	return in.evaluate(ctx, m, engine, w, nil)
}

// Evaluate is EvaluateOn with the engine the sweep was run with
// (`cqla sweep <name> -engine analytic|des`).
func (in In) Evaluate(ctx context.Context, m *arch.Machine, w arch.Workload) (arch.Result, error) {
	return in.EvaluateOn(ctx, m, w, in.Engine)
}

// EvaluatePlan routes a prebuilt workload plan — a custom circuit compiled
// once with arch.PlanCircuit — through the sweep's engine on m, exactly as
// EvaluateOn does for a registry kernel.
func (in In) EvaluatePlan(ctx context.Context, m *arch.Machine, plan *arch.WorkloadPlan) (arch.Result, error) {
	return in.evaluate(ctx, m, in.Engine, plan.Workload(), plan)
}

// evaluate binds plan — or, when plan is nil, the sweep's plan for w — to
// m inside a "plan-compile" span and evaluates it on the named engine.
func (in In) evaluate(ctx context.Context, m *arch.Machine, engine string, w arch.Workload, plan *arch.WorkloadPlan) (arch.Result, error) {
	eng, err := m.Engine(engine)
	if err != nil {
		return arch.Result{}, err
	}
	_, sp := obs.StartSpan(ctx, "plan-compile")
	if plan == nil {
		plan, err = in.Plan(w)
	}
	var cw *arch.CompiledWorkload
	if err == nil {
		cw, err = m.CompileWith(w, plan)
	}
	sp.End()
	if err != nil {
		return arch.Result{}, err
	}
	return arch.EvaluateCompiled(ctx, eng, cw)
}
