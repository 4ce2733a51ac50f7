package explore

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"

	"repro/internal/arch"
	"repro/internal/obs"
)

// evalCache is the plan cache the runner threads through every In: one
// plan per (kernel, bits) for registry kernels, and one per circuit text
// for the custom circuits cqla serve requests bring. A plan builds its
// circuit and DAG only when an engine first reads it, and it memoizes the
// kernel's list-scheduled makespans, so every point that evaluates the
// same kernel — every pareto point runs the one 256-bit adder on a
// different machine — shares that work. Plans are safe for concurrent use
// and deterministic: two caches (or none at all) produce byte-identical
// sweeps, which TestCacheTransparency pins.
//
// The cache has two lifetimes. Run creates one per sweep and drops it with
// the sweep, as the CLI does on every pass. A job Manager owns one for the
// life of the server and hands it to every job's Run, so a job that misses
// the result cache still reuses the plans that earlier jobs of any sweep,
// seed, phys or engine built: a plan depends only on its kernel and width,
// or on its circuit's text.
//
// A run pins every plan it reads until it returns, so a plan in use is
// never evicted and its build stays single-flight across concurrent runs.
// When the last run using a plan returns, the plan is charged its built
// size (planCharge; 0 while unbuilt), and the least-recently used unpinned
// plans of its tier are evicted until the tier's charges fit its budget.
// A plan larger than an eighth of the kernel budget is dropped as soon as
// its last run returns, so one fig8b job's large QFTs never flush the
// small kernels every other miss sweep shares, nor the simulations
// memoized in them. Only a successfully planned workload enters the
// cache. Request bodies can add circuit keys without end, so circuit plans
// have a tier of their own, a quarter of the kernel budget: a stream of
// distinct circuits evicts only other circuits, never a registry kernel's
// plan. A circuit plan is built when it is planned, so it is charged at
// least planOverhead, and its tier's budget bounds how many the cache
// retains and the bytes they hold.
//
// Machines and their compiled bindings are not cached: arch.New and
// Machine.CompileWith are cheap next to a kernel's DAG, and the points of
// a sweep almost never repeat a (machine, workload) pair.
type evalCache struct {
	held *obs.Gauge // mirrors the tiers' summed sizes; nil without metrics

	mu      sync.Mutex
	plans   map[planKey]*planEntry
	kernels planTier // registry kernel plans
	custom  planTier // plans of posted circuits, keyed by text digest
}

// planTier is one share of an evalCache's budget, guarded by evalCache.mu.
type planTier struct {
	budget int       // instructions the tier's retained plans may hold
	size   int       // sum of the tier's charges
	lru    list.List // the tier's entries; front = most recently acquired
}

// planBudget is the kernel budget of a long-lived evalCache: about 14 MB
// at ~54 B per instruction with its DAG and makespan memo, and its circuit
// tier's planBudget/4 another 3.5 MB. Plans charged at most
// planBudget/8 = 32,768 are admitted: every plan of the
// table4, table5, fig8a, pareto, overlap-sens, xval, workloads and
// workload-blocks sweeps (16 plans, 44,048 instructions together; the
// largest, the 1024-bit adder, has 18,402) and fig8b's QFT(100) and
// QFT(200), but none of its QFT(300…1000), which a job builds and drops.
const planBudget = 1 << 18

// planOverhead is what a built plan holds besides its instructions — its
// bookkeeping, the per-machine makespan and simulation memos — counted in
// instructions: a two-gate circuit's plan retains about 2 KB after an
// analytic job and 4 KB after a des one. Charging it keeps the circuit
// budget a bound on bytes for a stream of tiny distinct circuits too, at
// most planBudget/4/planOverhead = 512 plans.
const planOverhead = 128

// planCharge is what a plan counts against the budget: its instructions
// plus planOverhead once built, and 0 while unbuilt.
func planCharge(p *arch.WorkloadPlan) int {
	n := p.Instructions()
	if n == 0 {
		return 0
	}
	return n + planOverhead
}

// planKey identifies a registry kernel plan by kernel identity × width
// (adder and modexp workloads share the carry-lookahead kernel, every
// other kind has its own: arch.Workload.Kernel), or a custom circuit's
// plan by a digest of its text. Every serve circuit is named "request",
// so its kernel identity would collide; its text cannot.
type planKey struct {
	kernel string
	bits   int
	text   [sha256.Size]byte // zero for registry kernels
}

// circuitPlanKey is the plan key of the custom circuit whose source is text.
func circuitPlanKey(text string) planKey {
	h := sha256.New()
	writeString(h, text)
	var k planKey
	h.Sum(k.text[:0])
	return k
}

// planEntry is one cached plan and its bookkeeping, guarded by
// evalCache.mu.
type planEntry struct {
	key    planKey
	plan   *arch.WorkloadPlan
	tier   *planTier
	pins   int // runs that read the plan and have not returned
	charge int // instructions counted against the tier's budget
	elem   *list.Element
}

// newEvalCache returns an empty cache whose kernel plans may hold budget
// instructions and its circuit plans a quarter of that; held may be nil.
func newEvalCache(budget int, held *obs.Gauge) *evalCache {
	return &evalCache{
		held:    held,
		plans:   make(map[planKey]*planEntry),
		kernels: planTier{budget: budget},
		custom:  planTier{budget: budget / 4},
	}
}

// tier is the share of the budget k's plan is charged to.
func (c *evalCache) tier(k planKey) *planTier {
	if k.text != ([sha256.Size]byte{}) {
		return &c.custom
	}
	return &c.kernels
}

// cached returns the plan under k without pinning it, or nil.
func (c *evalCache) cached(k planKey) *arch.WorkloadPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.plans[k]; e != nil {
		return e.plan
	}
	return nil
}

// acquire returns k's entry pinned once more, planning with mk into a new
// entry on a miss (created reports that). A failed plan is returned
// uncached.
func (c *evalCache) acquire(k planKey, mk func() (*arch.WorkloadPlan, error)) (e *planEntry, created bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.plans[k]; e != nil {
		e.pins++
		e.tier.lru.MoveToFront(e.elem)
		return e, false, nil
	}
	p, err := mk()
	if err != nil {
		return nil, false, err
	}
	e = &planEntry{key: k, plan: p, tier: c.tier(k), pins: 1}
	e.elem = e.tier.lru.PushFront(e)
	c.plans[k] = e
	return e, true, nil
}

// release unpins a returning run's entries, charges each one no run uses
// any more its built size, and evicts until each tier's charges fit its
// budget.
func (c *evalCache) release(used map[planKey]*planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range used {
		if e.pins--; e.pins > 0 {
			continue
		}
		n := planCharge(e.plan)
		e.tier.size += n - e.charge
		e.charge = n
		if n > c.kernels.budget/8 {
			c.evict(e)
		}
	}
	for _, t := range []*planTier{&c.kernels, &c.custom} {
		// Walk from the least-recently used end. Unbuilt plans charge
		// nothing, so evicting one would free nothing.
		for el := t.lru.Back(); el != nil && t.size > t.budget; {
			e := el.Value.(*planEntry)
			el = el.Prev()
			if e.pins == 0 && e.charge > 0 {
				c.evict(e)
			}
		}
	}
	c.held.Set(int64(c.kernels.size + c.custom.size))
}

// evict removes e from the cache; c.mu must be held.
func (c *evalCache) evict(e *planEntry) {
	e.tier.lru.Remove(e.elem)
	delete(c.plans, e.key)
	e.tier.size -= e.charge
}

// runPlans is one run's view of an evalCache: the entries the run has
// pinned and its hit and miss counters
// (cqla_evalcache_{hits,misses}_total, labeled by the run's sweep and
// kind="plan"). The counters are nil — free — when observability is off.
// A run counts a miss for each plan it adds to the cache and a hit for
// every other read, so a job that reuses an earlier job's plan counts the
// hit under its own sweep.
type runPlans struct {
	cache        *evalCache
	hits, misses *obs.Counter

	mu   sync.Mutex
	used map[planKey]*planEntry
}

// newRunPlans opens a run's view of c; reg may be nil (no metrics).
func newRunPlans(c *evalCache, reg *obs.Registry, sweep string) *runPlans {
	r := &runPlans{cache: c, used: make(map[planKey]*planEntry)}
	if reg != nil {
		r.hits = reg.CounterVec("cqla_evalcache_hits_total",
			"Evaluation-cache hits by tier (plan).", "sweep", "kind").With(sweep, "plan")
		r.misses = reg.CounterVec("cqla_evalcache_misses_total",
			"Evaluation-cache misses by tier (plan).", "sweep", "kind").With(sweep, "plan")
	}
	return r
}

// plan returns the cached plan for w, pinning it for the rest of the run
// on the run's first read.
func (r *runPlans) plan(w arch.Workload) (*arch.WorkloadPlan, error) {
	return r.read(planKey{kernel: w.Kernel(), bits: w.Bits}, func() (*arch.WorkloadPlan, error) {
		return arch.PlanWorkload(w)
	})
}

// read returns the plan cached under k, pinning it for the rest of the run
// on the run's first read; mk plans it when the cache holds none.
func (r *runPlans) read(k planKey, mk func() (*arch.WorkloadPlan, error)) (*arch.WorkloadPlan, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.used[k]; e != nil {
		r.hits.Inc()
		return e.plan, nil
	}
	e, created, err := r.cache.acquire(k, mk)
	if err != nil {
		return nil, err
	}
	r.used[k] = e
	if created {
		r.misses.Inc()
	} else {
		r.hits.Inc()
	}
	return e.plan, nil
}

// release hands the run's pins back to the cache once the run is over.
func (r *runPlans) release() { r.cache.release(r.used) }

// Machine returns the unified-API machine at this design point, on the
// sweep's technology point.
func (in In) Machine(opts ...arch.Option) (*arch.Machine, error) {
	return arch.New(append([]arch.Option{arch.WithParams(in.Phys)}, opts...)...)
}

// Plan returns the machine-independent kernel plan for w from the run's
// plan cache when the runner provided one — the sweep's own in the CLI,
// the server's in a cqla serve job — and planned afresh otherwise. Its DAG
// is built on first read, recorded as a "dag-build" span, so a kernel the
// sweep's engine never reads (the analytic QFT) is never built. Registry
// kernels come through here; a custom circuit's plan is compiled by its
// experiment, read through the same cache with circuitPlan and evaluated
// with EvaluatePlan.
func (in In) Plan(w arch.Workload) (*arch.WorkloadPlan, error) {
	if in.plans == nil {
		return arch.PlanWorkload(w)
	}
	return in.plans.plan(w)
}

// EvaluateOn routes a workload through the named engine: it binds the
// run's shared plan for w to m and evaluates the binding. Results are
// identical with or without the plan cache. With a tracer in ctx
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
// EvaluateOn does for a registry kernel. The plan is used as given; a
// circuit's experiment first reads it through the run's cache with
// circuitPlan, so that on a server the circuit tier's budget bounds what
// is retained.
func (in In) EvaluatePlan(ctx context.Context, m *arch.Machine, plan *arch.WorkloadPlan) (arch.Result, error) {
	return in.evaluate(ctx, m, in.Engine, plan.Workload(), plan)
}

// circuitPlan returns the plan the run's cache holds under a custom
// circuit's key k, pinned for the rest of the run, and adopts plan — the
// one the circuit's experiment compiled — when the cache holds none. The
// cached plan is plan itself or one compiled from the same circuit.
// Without a cache (an In built outside Run) plan is used as given, as
// Plan plans afresh.
func (in In) circuitPlan(k planKey, plan *arch.WorkloadPlan) (*arch.WorkloadPlan, error) {
	if in.plans == nil {
		return plan, nil
	}
	return in.plans.read(k, func() (*arch.WorkloadPlan, error) { return plan, nil })
}

// evaluate binds plan — or, when plan is nil, the sweep's plan for w — to
// m inside a "plan-compile" span and evaluates it on the named engine.
func (in In) evaluate(ctx context.Context, m *arch.Machine, engine string, w arch.Workload, plan *arch.WorkloadPlan) (arch.Result, error) {
	_, sp := obs.StartSpan(ctx, "plan-compile")
	var err error
	if plan == nil {
		plan, err = in.Plan(w)
	}
	var cw *arch.CompiledWorkload
	if err == nil {
		cw, err = m.CompileWith(w, plan)
	}
	sp.End()
	var res arch.Result
	if err == nil {
		err = cw.Evaluate(ctx, engine, &res)
	}
	return res, err
}
