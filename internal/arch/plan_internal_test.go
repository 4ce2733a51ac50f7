package arch

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestAnalyticQFTLeavesPlanUnbuilt pins the lazy kernel: the analytic
// engine prices the QFT in closed form, so evaluating it must not generate
// the circuit or build its DAG. An adder evaluation on the same engine
// reads its plan and builds it.
func TestAnalyticQFTLeavesPlanUnbuilt(t *testing.T) {
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := m.Engine(EngineAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		w     Workload
		built bool
	}{
		{NewQFT(1000), false},
		{NewAdder(32, true), true},
		{NewModExp(32), true},
		{NewKind(KindQFTComm, 16), true},
	} {
		cw, err := m.Compile(c.w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := EvaluateCompiled(context.Background(), eng, cw); err != nil {
			t.Fatal(err)
		}
		if got := cw.plan.Instructions() > 0; got != c.built {
			t.Errorf("analytic %s/%d: plan built = %v, want %v", c.w.Kind, c.w.Bits, got, c.built)
		}
	}
}

// TestPlanBuiltOnceByConcurrentReaders races first readers of one shared
// plan on both engines: the kernel is built exactly once, as one
// "dag-build" span, and every reader sees the same results as a serial
// evaluation. Run it under -race.
func TestPlanBuiltOnceByConcurrentReaders(t *testing.T) {
	m, err := New(WithBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	w := NewKind(KindQFTComm, 24)
	serial := map[string]Result{}
	for _, name := range EngineNames() {
		eng, err := m.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := m.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		if serial[name], err = EvaluateCompiled(context.Background(), eng, cw); err != nil {
			t.Fatal(err)
		}
	}

	plan, err := PlanWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := m.CompileWith(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	const readers = 8
	results := make([]Result, readers)
	errs := make([]error, readers)
	engines := make([]string, readers)
	var wg sync.WaitGroup
	for i := range readers {
		engines[i] = EngineNames()[i%2]
		eng, err := m.Engine(engines[i])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = EvaluateCompiled(ctx, eng, cw)
		}()
	}
	wg.Wait()
	for i := range readers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], serial[engines[i]]) {
			t.Errorf("reader %d (%s) diverges from the serial evaluation", i, engines[i])
		}
	}
	builds := 0
	for _, sp := range tr.Spans() {
		if sp.Name() == "dag-build" {
			builds++
		}
	}
	if builds != 1 {
		t.Errorf("%d dag-build spans for one shared plan, want 1", builds)
	}
}

// TestRunnerPoolSharedPerConfig: every binding of one plan to a machine
// with the same simulator config draws des arenas from one pool, and a
// different config gets its own, since a runner depends only on the DAG
// and the config.
func TestRunnerPoolSharedPerConfig(t *testing.T) {
	plan, err := PlanWorkload(NewAdder(32, true))
	if err != nil {
		t.Fatal(err)
	}
	pool := func(opts ...Option) *sync.Pool {
		m, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := m.CompileWith(plan.Workload(), plan)
		if err != nil {
			t.Fatal(err)
		}
		return cw.plan.runnerPool(cw.desCfg)
	}
	a, b, c := pool(WithBlocks(4)), pool(WithBlocks(4)), pool(WithBlocks(8))
	if a != b {
		t.Error("two bindings with one simulator config use different runner pools")
	}
	if a == c {
		t.Error("bindings with different simulator configs share a runner pool")
	}
}
