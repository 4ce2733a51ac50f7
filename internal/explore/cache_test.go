package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/phys"
)

// TestCacheTransparency is the refactor's central regression proof: the
// per-sweep plan cache must be invisible in the output. Every point of a
// cached Run is re-evaluated here through a cache-less In — fresh kernel
// plan, DAG and binding per evaluation — and the metrics must match to the
// last bit, for the analytic engine and the discrete-event engine alike.
func TestCacheTransparency(t *testing.T) {
	registered := func(name string) *Experiment {
		exp, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	// A custom circuit goes through In.EvaluatePlan rather than In.Plan.
	custom, err := CircuitExperiment("cla16", gen.CarryLookahead(16).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		exp    *Experiment
		engine string
	}{
		{registered("pareto"), "analytic"},     // 45 points, one shared kernel, all-distinct machines
		{registered("table5"), "analytic"},     // machines×sizes grid
		{registered("xval"), "analytic"},       // evaluates both engines inside one point
		{registered("fig8b"), "des"},           // QFT kernel through the simulator
		{registered("table4"), "analytic"},     // the Table 4 golden path
		{registered("fig6a"), "analytic"},      // In.Plan: one shared adder DAG per size
		{registered("workload-blocks"), "des"}, // every kernel kind at each block budget
		{custom, "analytic"},                   // In.EvaluatePlan on a prebuilt plan
		{custom, "des"},
	}
	for _, tc := range cases {
		exp := tc.exp
		opts := Options{Phys: phys.Projected(), Seed: 1, Engine: tc.engine, Parallel: 4}
		pts, err := Run(context.Background(), exp, opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", exp.Name, tc.engine, err)
		}
		engine, err := arch.NormalizeEngine(tc.engine)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range pts {
			in := In{
				Phys:   opts.Phys,
				Seed:   pointSeed(opts.Seed, exp.Name, key(exp.coordsAt(i))),
				Engine: engine,
				exp:    exp,
				coords: exp.coordsAt(i),
				// cache deliberately nil: the pre-cache evaluation path.
			}
			want, err := exp.Eval(context.Background(), in)
			if err != nil {
				t.Fatalf("%s/%s point %d: %v", exp.Name, tc.engine, i, err)
			}
			// Post hooks (pareto's frontier marks) append extra metrics to
			// the cached run's points; the evaluator's own metrics must
			// form a bit-exact prefix.
			got := pt.Metrics
			if len(got) > len(want) {
				got = got[:len(want)]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s point %d: cached run diverges from uncached evaluation\n cached:   %v\n uncached: %v",
					exp.Name, tc.engine, i, got, want)
			}
		}
	}
}

// TestDESEngineDeterministicAcrossParallelism extends the engine's
// byte-identity contract to the discrete-event path under the plan cache:
// one shared plan evaluated concurrently by 8 workers must reproduce the
// serial sweep exactly.
func TestDESEngineDeterministicAcrossParallelism(t *testing.T) {
	for _, name := range []string{"xval", "fig8b"} {
		exp, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(parallel int) []Point {
			pts, err := Run(context.Background(), exp, Options{
				Phys: phys.Projected(), Seed: 7, Engine: "des", Parallel: parallel,
			})
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", name, parallel, err)
			}
			return pts
		}
		serial := run(1)
		parallel := run(8)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: des-engine sweep differs between -parallel 1 and 8", name)
		}
	}
}

// submitPlanJob submits one sweep as a job of m.
func submitPlanJob(t *testing.T, m *Manager, name, engine string, seed int64) *Job {
	t.Helper()
	exp, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Sweep: name, Phys: phys.Projected(), Seed: seed, Engine: engine}
	j, _, err := m.Submit(spec, func() (*Experiment, error) { return exp, nil })
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// waitPlanJob returns j's document.
func waitPlanJob(t *testing.T, j *Job) []byte {
	t.Helper()
	doc, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("%s/%s seed %d: %v", j.Spec.Sweep, j.Spec.Engine, j.Spec.Seed, err)
	}
	return doc
}

// planJob runs one sweep as a job of m and returns its document.
func planJob(t *testing.T, m *Manager, name, engine string, seed int64) []byte {
	t.Helper()
	return waitPlanJob(t, submitPlanJob(t, m, name, engine, seed))
}

// freshPlanDoc runs the sweep as the CLI does, with a plan cache of its
// own, and returns its document and every plan key the sweep read. The
// cache is unbounded only so that it still lists the plans too large to
// retain; within one run no plan is ever evicted, bounded or not.
func freshPlanDoc(t *testing.T, name, engine string, seed int64) ([]byte, map[planKey]bool) {
	t.Helper()
	exp, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	c := newEvalCache(math.MaxInt, nil)
	return cachedPlanDoc(context.Background(), t, c, exp, engine, seed), retainedPlans(c)
}

// cachedPlanDoc runs exp through the plan cache c under ctx, as a job
// does, and returns its document.
func cachedPlanDoc(ctx context.Context, t *testing.T, c *evalCache, exp *Experiment, engine string, seed int64) []byte {
	t.Helper()
	pts, err := Run(ctx, exp, Options{Phys: phys.Projected(), Seed: seed, Engine: engine, plans: c})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := arch.NormalizeEngine(engine)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep := &Report{Experiment: exp, Phys: phys.Projected().Name, Seed: seed, Engine: eng, Points: pts}
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// retainedPlans lists the keys c holds.
func retainedPlans(c *evalCache) map[planKey]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make(map[planKey]bool, len(c.plans))
	for k := range c.plans {
		keys[k] = true
	}
	return keys
}

// checkPlanCache asserts the cache's bookkeeping at rest: no run holds a
// pin, each tier's entries are charged their built size (planCharge) and
// add up to its size, each size fits its tier's budget, every entry sits
// in the tier its key names, and the gauge mirrors the two sizes' sum.
func checkPlanCache(t *testing.T, c *evalCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	listed := 0
	for _, tier := range []*planTier{&c.kernels, &c.custom} {
		sum := 0
		for el := tier.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*planEntry)
			if e.pins != 0 {
				t.Errorf("plan %v still pinned %d times with no job running", e.key, e.pins)
			}
			if n := planCharge(e.plan); e.charge != n {
				t.Errorf("plan %v charged %d, its built size is %d", e.key, e.charge, n)
			}
			if c.plans[e.key] != e {
				t.Errorf("plan %v on the LRU list but not in the index", e.key)
			}
			if e.tier != tier || c.tier(e.key) != tier {
				t.Errorf("plan %v on the wrong tier's LRU list", e.key)
			}
			sum += e.charge
		}
		listed += tier.lru.Len()
		if sum != tier.size {
			t.Errorf("charges add up to %d instructions, size says %d", sum, tier.size)
		}
		if tier.size > tier.budget {
			t.Errorf("a tier retains %d instructions, over its %d budget", tier.size, tier.budget)
		}
	}
	if listed != len(c.plans) {
		t.Errorf("LRU lists hold %d plans, index %d", listed, len(c.plans))
	}
	if size := c.kernels.size + c.custom.size; c.held != nil && c.held.Value() != int64(size) {
		t.Errorf("cqla_plan_cache_instructions = %d, cache holds %d", c.held.Value(), size)
	}
}

// planCounters returns a sweep's plan hit and miss counters on reg.
func planCounters(reg *obs.Registry, sweep string) (hits, misses uint64) {
	r := newRunPlans(nil, reg, sweep)
	return r.hits.Value(), r.misses.Value()
}

// TestWarmManagerPlanCacheTransparency runs one manager through sweeps of
// both engines and several seeds. Every document must match the CLI's
// (a fresh Run with its own plan cache) byte for byte, and from the
// second job on each job must hit the plans earlier jobs left: it counts
// a miss only for kernels the cache did not retain when it started.
func TestWarmManagerPlanCacheTransparency(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewTestManager(WithObservability(reg))
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	for i, step := range []struct {
		sweep, engine string
		seed          int64
	}{
		{"table4", "analytic", 1},
		{"table4", "des", 2},
		{"pareto", "analytic", 1},
		{"table5", "des", 1},
		{"workload-blocks", "des", 1},
		{"fig8b", "des", 1},
		{"table4", "analytic", 3},
	} {
		name := fmt.Sprintf("%s/%s/seed%d", step.sweep, step.engine, step.seed)
		retained := retainedPlans(m.plans)
		hits0, misses0 := planCounters(reg, step.sweep)
		got := planJob(t, m, step.sweep, step.engine, step.seed)
		hits, misses := planCounters(reg, step.sweep)
		want, read := freshPlanDoc(t, step.sweep, step.engine, step.seed)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the warm manager's document differs from a fresh run's", name)
		}
		checkPlanCache(t, m.plans)
		if i == 0 {
			continue
		}
		cold, warm := 0, 0
		for k := range read {
			if retained[k] {
				warm++
			} else {
				cold++
			}
		}
		if d := misses - misses0; d != uint64(cold) {
			t.Errorf("%s: %d plan misses, want %d — one per kernel not retained (%d of its %d kernels were)",
				name, d, cold, warm, len(read))
		}
		t.Logf("%s: %d of %d kernels retained, %d hits", name, warm, len(read), hits-hits0)
		if warm > 0 && hits == hits0 {
			t.Errorf("%s: no plan hits though %d of its kernels were retained", name, warm)
		}
	}
	if got := retainedPlans(m.plans); len(got) == 0 {
		t.Error("the manager retained no plan at all")
	}
}

// TestSimulationsSharedAcrossSweeps: the plans a shared cache retains
// carry their memoized des simulations from sweep to sweep, so on one
// cache table5 simulates only the (kernel, machine) pairs table4 did not,
// and fig8a and xval none at all ("sim-run" spans), while every document
// matches a fresh run's byte for byte.
func TestSimulationsSharedAcrossSweeps(t *testing.T) {
	c := newEvalCache(planBudget, nil)
	for _, step := range []struct {
		sweep string
		sims  int
	}{
		{"table4", 24},
		{"table5", 6},
		{"fig8a", 0},
		{"xval", 0},
	} {
		exp, err := Lookup(step.sweep)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		got := cachedPlanDoc(obs.WithTracer(context.Background(), tr), t, c, exp, "des", 1)
		want, _ := freshPlanDoc(t, step.sweep, "des", 1)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the shared-cache document differs from a fresh run's", step.sweep)
		}
		sims := 0
		for _, sp := range tr.Spans() {
			if sp.Name() == "sim-run" {
				sims++
			}
		}
		if sims != step.sims {
			t.Errorf("%s simulated %d times on the shared cache, want %d", step.sweep, sims, step.sims)
		}
	}
	checkPlanCache(t, c)
}

// TestPlanCacheBound: fig8b's QFT(300…1000) are each larger than an
// eighth of the budget, so its job uses them and then drops them, leaving
// the cache within budget and the smaller plans, its own QFT(100) and
// QFT(200) and table4's adders, still retained: the table4 jobs afterwards
// rebuild nothing.
func TestPlanCacheBound(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewTestManager(WithObservability(reg))
	t.Cleanup(func() { m.Shutdown(context.Background()) })

	planJob(t, m, "table4", "des", 1)
	planJob(t, m, "fig8b", "des", 1)
	checkPlanCache(t, m.plans)
	retained := retainedPlans(m.plans)
	for bits, want := range map[int]bool{200: true, 300: false, 1000: false} {
		if retained[planKey{kernel: string(arch.KindQFT), bits: bits}] != want {
			t.Errorf("QFT(%d) retained = %v after its fig8b job, want %v", bits, !want, want)
		}
	}
	if n := gen.QFT(300, false).Len(); n <= planBudget/8 {
		t.Fatalf("QFT(300) has %d instructions, within the %d admission bound: the test no longer probes it", n, planBudget/8)
	}

	for _, seed := range []int64{2, 3} {
		hits0, misses0 := planCounters(reg, "table4")
		planJob(t, m, "table4", "des", seed)
		hits, misses := planCounters(reg, "table4")
		if misses != misses0 {
			t.Errorf("table4 seed %d after fig8b rebuilt %d plans, want 0", seed, misses-misses0)
		}
		if hits == hits0 {
			t.Errorf("table4 seed %d after fig8b counted no plan hits", seed)
		}
	}
	checkPlanCache(t, m.plans)
}

// TestPlanCacheSharedByConcurrentJobs: two evaluations at once read the
// same kernels through the manager's cache. Their documents match fresh
// runs, every kernel is planned once between them, and the cache is
// consistent once both finish. Run it under -race.
func TestPlanCacheSharedByConcurrentJobs(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewTestManager(WithObservability(reg), WithMaxEvaluations(2))
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	seeds := []int64{1, 2}
	jobs := make([]*Job, len(seeds))
	for i, seed := range seeds {
		jobs[i] = submitPlanJob(t, m, "table5", "des", seed) // both run at once
	}
	var read map[planKey]bool
	for i, seed := range seeds {
		got := waitPlanJob(t, jobs[i])
		want, r := freshPlanDoc(t, "table5", "des", seed)
		read = r
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: the shared-cache document differs from a fresh run's", seed)
		}
	}
	if _, misses := planCounters(reg, "table5"); misses != uint64(len(read)) {
		t.Errorf("two concurrent jobs planned %d times, want once per kernel (%d)", misses, len(read))
	}
	checkPlanCache(t, m.plans)
}

// TestCircuitPlanSharedAcrossRequests: a server plans a posted circuit
// once, under a digest of its text. The same text at a new seed, on des
// and under the current phys misses the result cache but not the plan
// cache, and every document matches a fresh CircuitExperiment run byte
// for byte. A text that differs only by a comment gets its own plan, a bad
// circuit leaves the cache as it was, and a circuit above the admission
// bound is evaluated but not retained.
func TestCircuitPlanSharedAcrossRequests(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(WithObservability(reg))
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	plans := s.jobs.plans
	post := func(t *testing.T, text string, seed int64, engine, physName string) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(map[string]any{"circuit": text, "seed": seed, "engine": engine, "phys": physName})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps/circuit:run", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	circuitPlans := func() int {
		n := 0
		for k := range retainedPlans(plans) {
			if k.text != (planKey{}).text {
				n++
			}
		}
		return n
	}
	wantMisses := func(t *testing.T, want uint64) {
		t.Helper()
		if _, misses := planCounters(reg, circuitSweepName); misses != want {
			t.Errorf("circuit plan misses = %d, want %d", misses, want)
		}
	}

	cla32 := circuit.FormatString(gen.CarryLookahead(32).Circuit)
	for _, step := range []struct {
		seed             int64
		engine, physName string
	}{
		{1, "analytic", "projected"},
		{2, "analytic", "projected"},
		{2, "des", "projected"},
		{2, "des", "current"},
	} {
		code, got := post(t, cla32, step.seed, step.engine, step.physName)
		if code != http.StatusOK {
			t.Fatalf("%+v: status %d (%s)", step, code, got)
		}
		if want := freshCircuitDoc(t, cla32, step.seed, step.engine, step.physName); !bytes.Equal(got, want) {
			t.Errorf("%+v: the served document differs from a fresh CircuitExperiment run's", step)
		}
		checkPlanCache(t, plans)
	}
	wantMisses(t, 1)
	if hits, _ := planCounters(reg, circuitSweepName); hits == 0 {
		t.Error("four cla32 jobs counted no circuit plan hits")
	}
	if n := circuitPlans(); n != 1 {
		t.Errorf("%d circuit plans retained after one text, want 1", n)
	}

	if code, doc := post(t, "# the same adder\n"+cla32, 1, "analytic", "projected"); code != http.StatusOK {
		t.Fatalf("commented cla32: status %d (%s)", code, doc)
	}
	wantMisses(t, 2)
	if n := circuitPlans(); n != 2 {
		t.Errorf("%d circuit plans retained after two texts, want 2", n)
	}

	held := plans.held.Value()
	if code, doc := post(t, "qubits 2\ncnot 0 7\n", 1, "analytic", "projected"); code != http.StatusBadRequest {
		t.Errorf("bad circuit: status %d, want 400 (%s)", code, doc)
	}
	if got := plans.held.Value(); got != held {
		t.Errorf("a bad circuit moved cqla_plan_cache_instructions %d → %d", held, got)
	}
	wantMisses(t, 2)

	large := "qubits 1\n" + strings.Repeat("h 0\n", planBudget/8+1)
	if code, doc := post(t, large, 1, "analytic", "projected"); code != http.StatusOK {
		t.Fatalf("large circuit: status %d (%s)", code, doc)
	}
	wantMisses(t, 3)
	if retainedPlans(plans)[circuitPlanKey(large)] {
		t.Errorf("a circuit of %d instructions was retained over the %d admission bound", planBudget/8+1, planBudget/8)
	}
	if got := plans.held.Value(); got != held {
		t.Errorf("a circuit over the admission bound moved cqla_plan_cache_instructions %d → %d", held, got)
	}
	checkPlanCache(t, plans)
}

// freshCircuitDoc runs the circuit text as `cqla sweep -circuit` would, with
// a plan of its own, and returns its document.
func freshCircuitDoc(t *testing.T, text string, seed int64, engine, physName string) []byte {
	t.Helper()
	c, err := circuit.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := CircuitExperiment(requestCircuit, c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := physByName(physName)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Run(context.Background(), exp, Options{Phys: p, Seed: seed, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep := &Report{Experiment: exp, Phys: p.Name, Seed: seed, Engine: engine, Points: pts}
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCircuitPlanConcurrentRequests: two jobs of one circuit text at
// different seeds run at once, each from a plan its request compiled. They
// share one cache entry, planned once, and their documents match fresh
// runs. Run it under -race.
func TestCircuitPlanConcurrentRequests(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewTestManager(WithObservability(reg), WithMaxEvaluations(2))
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	text := circuit.FormatString(gen.QFT(16, false))
	seeds := []int64{5, 6}
	jobs := make([]*Job, len(seeds))
	for i, seed := range seeds {
		j, _, err := m.Submit(JobSpec{Sweep: circuitSweepName, Phys: phys.Projected(), Seed: seed, Circuit: text},
			func() (*Experiment, error) { return requestExperiment(m.plans, text) })
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, seed := range seeds {
		if got := waitPlanJob(t, jobs[i]); !bytes.Equal(got, freshCircuitDoc(t, text, seed, "analytic", "projected")) {
			t.Errorf("seed %d: the shared-plan document differs from a fresh run's", seed)
		}
	}
	if _, misses := planCounters(reg, circuitSweepName); misses != 1 {
		t.Errorf("two concurrent jobs of one circuit planned it into the cache %d times, want 1", misses)
	}
	checkPlanCache(t, m.plans)
}

// TestCircuitPlansKeepRegistryPlans: a stream of distinct circuit texts,
// together larger than the plan budget, posted between des jobs of
// table4 and table5 on one server, never evicts a registry kernel's plan,
// nor the simulations memoized in it: after the first jobs of each sweep,
// no later seed plans a kernel again.
func TestCircuitPlansKeepRegistryPlans(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(WithObservability(reg))
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	post := func(sweep string, body map[string]any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps/"+sweep+":run", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %v: status %d (%s)", sweep, body["seed"], rec.Code, rec.Body.Bytes())
		}
	}
	sweeps := []string{"table4", "table5"}
	for _, sweep := range sweeps {
		post(sweep, map[string]any{"engine": "des", "seed": 1})
	}
	var warm [2]uint64
	for i, sweep := range sweeps {
		_, warm[i] = planCounters(reg, sweep)
	}
	// Each circuit is just within the admission bound, so it is retained,
	// and each burst of ten outweighs the whole budget.
	const rounds, circuits, gates = 2, 10, planBudget/8 - 1024
	for r := 0; r < rounds; r++ {
		for i := 0; i < circuits; i++ {
			text := "qubits 1\n" + strings.Repeat("h 0\n", gates+r*circuits+i)
			post(circuitSweepName, map[string]any{"circuit": text, "seed": 1})
		}
		for _, sweep := range sweeps {
			post(sweep, map[string]any{"engine": "des", "seed": 2 + r})
		}
	}
	checkPlanCache(t, s.jobs.plans)
	for i, sweep := range sweeps {
		if _, misses := planCounters(reg, sweep); misses != warm[i] {
			t.Errorf("%s planned %d kernels again between %d circuit posts, want 0", sweep, misses-warm[i], rounds*circuits)
		}
	}
	if _, misses := planCounters(reg, circuitSweepName); misses != rounds*circuits {
		t.Errorf("%d distinct circuits planned into the cache %d times", rounds*circuits, misses)
	}
}
