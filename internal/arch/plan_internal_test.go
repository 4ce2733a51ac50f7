package arch

import (
	"context"
	"errors"
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
		if _, err := evaluated(context.Background(), cw, EngineAnalytic); err != nil {
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
		cw, err := m.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		if serial[name], err = evaluated(context.Background(), cw, name); err != nil {
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = evaluated(ctx, cw, engines[i])
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
	if builds := spanCount(tr, "dag-build"); builds != 1 {
		t.Errorf("%d dag-build spans for one shared plan, want 1", builds)
	}
}

// evaluated evaluates cw on the named engine into a new Result.
func evaluated(ctx context.Context, cw *CompiledWorkload, engine string) (Result, error) {
	var res Result
	err := cw.Evaluate(ctx, engine, &res)
	return res, err
}

// spanCount returns how many spans named name tr has recorded.
func spanCount(tr *obs.Tracer, name string) int {
	n := 0
	for _, sp := range tr.Spans() {
		if sp.Name() == name {
			n++
		}
	}
	return n
}

// desEvaluator binds plan to a machine built from opts and returns a
// function that evaluates the binding on the des engine under ctx.
func desEvaluator(t *testing.T, plan *WorkloadPlan, opts ...Option) func(context.Context) (Result, error) {
	t.Helper()
	m, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := m.CompileWith(plan.Workload(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context) (Result, error) { return evaluated(ctx, cw, EngineDES) }
}

// TestSimulationMemoizedPerConfig: des statistics depend only on the
// plan's DAG and the simulator config, so every binding of one plan to a
// machine with the same config runs the event loop once ("sim-run"
// spans), and a binding with another config runs it again. Eight
// concurrent first evaluations share one run; a cancelled first
// evaluation caches nothing. Run it under -race.
func TestSimulationMemoizedPerConfig(t *testing.T) {
	plan, err := PlanWorkload(NewAdder(32, true))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	a, err := desEvaluator(t, plan, WithBlocks(4))(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := desEvaluator(t, plan, WithBlocks(4))(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two bindings with one simulator config disagree")
	}
	if n := spanCount(tr, "sim-run"); n != 1 {
		t.Errorf("two bindings with one simulator config simulated %d times, want 1", n)
	}
	if _, err := desEvaluator(t, plan, WithBlocks(8))(ctx); err != nil {
		t.Fatal(err)
	}
	if n := spanCount(tr, "sim-run"); n != 2 {
		t.Errorf("a binding with a second simulator config left %d simulations, want 2", n)
	}

	t.Run("concurrent", func(t *testing.T) {
		eval := desEvaluator(t, plan, WithBlocks(9))
		tr := obs.NewTracer()
		ctx := obs.WithTracer(context.Background(), tr)
		const readers = 8
		results := make([]Result, readers)
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for i := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = eval(ctx)
			}()
		}
		wg.Wait()
		for i := range readers {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(results[i], results[0]) {
				t.Errorf("reader %d disagrees with reader 0", i)
			}
		}
		if n := spanCount(tr, "sim-run"); n != 1 {
			t.Errorf("%d concurrent first evaluations simulated %d times, want 1", readers, n)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		eval := desEvaluator(t, plan, WithBlocks(16))
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eval(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("evaluation under a cancelled ctx returned %v, want context.Canceled", err)
		}
		tr := obs.NewTracer()
		got, err := eval(obs.WithTracer(context.Background(), tr))
		if err != nil {
			t.Fatal(err)
		}
		if n := spanCount(tr, "sim-run"); n != 1 {
			t.Errorf("the evaluation after a cancelled one simulated %d times, want 1", n)
		}
		fresh, err := PlanWorkload(plan.Workload())
		if err != nil {
			t.Fatal(err)
		}
		want, err := desEvaluator(t, fresh, WithBlocks(16))(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("the evaluation after a cancelled one differs from a fresh plan's")
		}
	})
}
