package explore

import (
	"context"

	"repro/internal/arch"
	"repro/internal/memo"
	"repro/internal/obs"
)

// evalCache is the per-sweep evaluation cache the runner threads through
// every In: one arch.Machine per resolved configuration, one kernel plan
// per (kernel, bits), and one bound CompiledWorkload per (machine,
// workload). A plan builds its circuit and DAG only when an engine first
// reads it. Machines and plans are safe for concurrent use and
// deterministic — two caches (or none at all) produce byte-identical
// sweeps, which TestCacheTransparency pins.
//
// The cache exists because a sweep's points overwhelmingly share setup
// work: every pareto point evaluates the same 256-bit adder kernel on a
// different machine, and every table row rebuilds machines whose circuit
// DAGs are identical. Compiling once per sweep turns that setup into a
// map hit.
//
// When the runner was given a metrics registry, each tier counts its
// hits and misses (cqla_evalcache_{hits,misses}_total, labeled by sweep
// and kind: machine, plan, compiled). The counters are nil — free — when
// observability is off. memo.Map builds are single-flight, so concurrent
// first callers of a key count one miss, for the caller that built it,
// and a hit for every caller that waited on that build.
type evalCache struct {
	machines memo.Map[arch.Config, *arch.Machine]
	plans    memo.Map[planKey, *arch.WorkloadPlan]
	compiled memo.Map[compiledKey, *arch.CompiledWorkload]

	machineHits, machineMisses   *obs.Counter
	planHits, planMisses         *obs.Counter
	compiledHits, compiledMisses *obs.Counter
}

// planKey identifies a kernel plan by kernel identity × width: adder and
// modexp workloads share the carry-lookahead kernel, every other kind —
// including named custom circuits — has its own (arch.Workload.Kernel).
type planKey struct {
	kernel string
	bits   int
}

// compiledKey identifies a machine-bound compilation.
type compiledKey struct {
	cfg arch.Config
	w   arch.Workload
}

// newEvalCache returns the sweep's cache; reg may be nil (no metrics).
func newEvalCache(reg *obs.Registry, sweep string) *evalCache {
	c := &evalCache{}
	if reg != nil {
		hits := reg.CounterVec("cqla_evalcache_hits_total",
			"Evaluation-cache hits by tier (machine, plan, compiled).",
			"sweep", "kind")
		misses := reg.CounterVec("cqla_evalcache_misses_total",
			"Evaluation-cache misses by tier (machine, plan, compiled).",
			"sweep", "kind")
		c.machineHits, c.machineMisses = hits.With(sweep, "machine"), misses.With(sweep, "machine")
		c.planHits, c.planMisses = hits.With(sweep, "plan"), misses.With(sweep, "plan")
		c.compiledHits, c.compiledMisses = hits.With(sweep, "compiled"), misses.With(sweep, "compiled")
	}
	return c
}

// count increments hit or miss depending on whether the memoized build
// ran; nil counters (observability off) make it a no-op.
func count(hit, miss *obs.Counter, built bool) {
	if built {
		miss.Inc()
	} else {
		hit.Inc()
	}
}

// machine returns the cached machine for the resolved options, building it
// on first use.
func (c *evalCache) machine(opts ...arch.Option) (*arch.Machine, error) {
	cfg, err := arch.Resolve(opts...)
	if err != nil {
		return nil, err
	}
	built := false
	m, err := c.machines.Do(cfg, func() (*arch.Machine, error) { built = true; return arch.New(opts...) })
	if err == nil {
		count(c.machineHits, c.machineMisses, built)
	}
	return m, err
}

// plan returns the shared kernel plan for w, planning it on first use.
// Planning builds nothing: the plan generates its circuit and DAG when an
// engine first reads it, recording that build as a "dag-build" span, so a
// kernel the sweep's engine never reads (the analytic QFT) is never built.
func (c *evalCache) plan(w arch.Workload) (*arch.WorkloadPlan, error) {
	built := false
	p, err := c.plans.Do(planKey{kernel: w.Kernel(), bits: w.Bits}, func() (*arch.WorkloadPlan, error) {
		built = true
		return arch.PlanWorkload(w)
	})
	if err == nil {
		count(c.planHits, c.planMisses, built)
	}
	return p, err
}

// compile returns the compiled workload binding w's shared plan to m.
func (c *evalCache) compile(m *arch.Machine, w arch.Workload) (*arch.CompiledWorkload, error) {
	p, err := c.plan(w)
	if err != nil {
		return nil, err
	}
	return c.bind(m, w, p)
}

// compileWith binds a caller-supplied prebuilt plan (a custom circuit from
// arch.PlanCircuit) to m, sharing the compiled tier with registry kernels.
// The plan tier is seeded with the plan so later lookups of the same
// kernel hit instead of failing to rebuild a custom circuit.
func (c *evalCache) compileWith(m *arch.Machine, plan *arch.WorkloadPlan) (*arch.CompiledWorkload, error) {
	c.plans.Seed(planKey{kernel: plan.Kernel(), bits: plan.Bits()}, plan)
	return c.bind(m, plan.Workload(), plan)
}

// bind is the compiled tier: it caches m.CompileWith(w, p) per (machine
// config, workload). A caller-supplied machine that is not the cache's own
// instance for that config (possible only if the evaluator built one
// outside In.Machine) gets a fresh uncached binding, so the returned
// compilation always belongs to m.
func (c *evalCache) bind(m *arch.Machine, w arch.Workload, p *arch.WorkloadPlan) (*arch.CompiledWorkload, error) {
	built := false
	cw, err := c.compiled.Do(compiledKey{cfg: m.Config(), w: w}, func() (*arch.CompiledWorkload, error) {
		built = true
		return m.CompileWith(w, p)
	})
	if err != nil {
		return nil, err
	}
	count(c.compiledHits, c.compiledMisses, built)
	if cw.Machine() != m {
		return m.CompileWith(w, p)
	}
	return cw, nil
}

// Machine returns the unified-API machine at this design point, on the
// sweep's technology point, reusing the per-sweep cache when the runner
// provided one. Machines are cached by their resolved configuration, so
// pass codes by registry name (WithCodeName) — every built-in sweep does.
func (in In) Machine(opts ...arch.Option) (*arch.Machine, error) {
	all := append([]arch.Option{arch.WithParams(in.Phys)}, opts...)
	if in.cache != nil {
		return in.cache.machine(all...)
	}
	return arch.New(all...)
}

// EvaluateOn routes a workload through the named engine, evaluating a
// per-sweep compiled form of the workload when the runner provided a
// cache and a freshly compiled one otherwise; results are identical either
// way. With a tracer in ctx (cqla sweep -trace), the compile and evaluate
// stages are recorded as "plan-compile" and engine-level spans, and the
// engine that first reads the kernel records its build as "dag-build".
func (in In) EvaluateOn(ctx context.Context, m *arch.Machine, w arch.Workload, engine string) (arch.Result, error) {
	eng, err := m.Engine(engine)
	if err != nil {
		return arch.Result{}, err
	}
	_, sp := obs.StartSpan(ctx, "plan-compile")
	var cw *arch.CompiledWorkload
	if in.cache != nil {
		cw, err = in.cache.compile(m, w)
	} else {
		cw, err = m.Compile(w)
	}
	sp.End()
	if err != nil {
		return arch.Result{}, err
	}
	return arch.EvaluateCompiled(ctx, eng, cw)
}

// Plan returns the machine-independent kernel plan for w, shared across the
// sweep through the per-sweep cache when the runner provided one and
// planned afresh otherwise. Its DAG is built on first read.
func (in In) Plan(w arch.Workload) (*arch.WorkloadPlan, error) {
	if in.cache != nil {
		return in.cache.plan(w)
	}
	return arch.PlanWorkload(w)
}

// Evaluate is EvaluateOn with the engine the sweep was run with
// (`cqla sweep <name> -engine analytic|des`).
func (in In) Evaluate(ctx context.Context, m *arch.Machine, w arch.Workload) (arch.Result, error) {
	return in.EvaluateOn(ctx, m, w, in.Engine)
}

// EvaluatePlan routes a prebuilt workload plan — a custom circuit compiled
// once with arch.PlanCircuit — through the sweep's engine on m, sharing
// the per-sweep compiled-binding cache when the runner provided one.
func (in In) EvaluatePlan(ctx context.Context, m *arch.Machine, plan *arch.WorkloadPlan) (arch.Result, error) {
	eng, err := m.Engine(in.Engine)
	if err != nil {
		return arch.Result{}, err
	}
	_, sp := obs.StartSpan(ctx, "plan-compile")
	var cw *arch.CompiledWorkload
	if in.cache != nil {
		cw, err = in.cache.compileWith(m, plan)
	} else {
		cw, err = m.CompileWith(plan.Workload(), plan)
	}
	sp.End()
	if err != nil {
		return arch.Result{}, err
	}
	return arch.EvaluateCompiled(ctx, eng, cw)
}
