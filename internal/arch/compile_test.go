package arch_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
)

// sameMetrics reports whether a and b carry the same metric names in the
// same order with bit-identical values.
func sameMetrics(a, b arch.Result) bool {
	if len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for i, m := range a.Metrics {
		if m.Name != b.Metrics[i].Name || math.Float64bits(m.Value) != math.Float64bits(b.Metrics[i].Value) {
			return false
		}
	}
	return true
}

// TestCompiledEvaluationIsByteIdentical is the cache-transparency
// contract: for both engines and every workload kind, evaluating through
// one plan shared across machines and engines — exactly what explore's
// per-sweep cache does — yields the same metric names and bit-identical
// values as compiling a fresh plan for every evaluation.
func TestCompiledEvaluationIsByteIdentical(t *testing.T) {
	ctx := context.Background()
	workloads := []arch.Workload{
		arch.NewAdder(32, false),
		arch.NewAdder(32, true),
		arch.NewModExp(32),
		arch.NewQFT(24),
	}
	machines := make([]*arch.Machine, 2)
	for i, blocks := range []int{9, 16} {
		m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(blocks))
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	for _, w := range workloads {
		plan, err := arch.PlanWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			for _, engine := range arch.EngineNames() {
				fresh, err := evaluate(ctx, m, engine, w)
				if err != nil {
					t.Fatalf("%s fresh-plan evaluation of %s/%d: %v", engine, w.Kind, w.Bits, err)
				}
				cw, err := m.CompileWith(w, plan)
				if err != nil {
					t.Fatalf("CompileWith(%s/%d): %v", w.Kind, w.Bits, err)
				}
				shared, err := evaluateCompiled(ctx, cw, engine)
				if err != nil {
					t.Fatalf("%s shared-plan evaluation of %s/%d: %v", engine, w.Kind, w.Bits, err)
				}
				if !sameMetrics(fresh, shared) {
					t.Errorf("%s %s/%d: shared-plan evaluation diverges\n fresh:  %v\n shared: %v",
						engine, w.Kind, w.Bits, fresh.Metrics, shared.Metrics)
				}
				// Evaluate-many on one compiled workload must be stable.
				again, err := evaluateCompiled(ctx, cw, engine)
				if err != nil {
					t.Fatal(err)
				}
				if !sameMetrics(again, shared) {
					t.Errorf("%s %s/%d: repeated compiled evaluation drifts", engine, w.Kind, w.Bits)
				}
			}
		}
	}
}

// TestCompileRejectsForeignAndMismatched pins the safety rails: a nil
// compiled workload does not evaluate, and a plan bound to the wrong
// workload errors.
func TestCompileRejectsForeignAndMismatched(t *testing.T) {
	m1, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range arch.EngineNames() {
		if _, err := evaluateCompiled(context.Background(), nil, engine); err == nil {
			t.Errorf("%s: evaluating a nil compiled workload did not error", engine)
		}
	}
	plan, err := arch.PlanWorkload(arch.NewAdder(16, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.CompileWith(arch.NewAdder(32, false), plan); err == nil {
		t.Error("binding a 16-bit plan to a 32-bit workload did not error")
	}
	if _, err := m1.CompileWith(arch.NewQFT(16), plan); err == nil {
		t.Error("binding an adder plan to a QFT workload did not error")
	}
	if _, err := m1.CompileWith(arch.NewAdder(16, false), nil); err == nil {
		t.Error("binding a nil plan did not error")
	}
	// Adder and modexp share the carry-lookahead kernel by design.
	if _, err := m1.CompileWith(arch.NewModExp(16), plan); err != nil {
		t.Errorf("binding an adder plan to a modexp workload errored: %v", err)
	}
	if _, err := arch.PlanWorkload(arch.Workload{Kind: "nope", Bits: 8}); err == nil {
		t.Error("planning an unknown workload kind did not error")
	}
}

// TestCompileRejectsInvalidWorkloads: an invalid workload fails at plan or
// compile time with the reason, a custom workload has no registered kernel
// to plan, and a result reports the metric it does not carry by name.
func TestCompileRejectsInvalidWorkloads(t *testing.T) {
	m, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compile(arch.NewAdder(1, false)); err == nil || !strings.Contains(err.Error(), "need at least 2") {
		t.Errorf("Compile of a 1-bit adder: err = %v", err)
	}
	plan, err := arch.PlanWorkload(arch.NewAdder(16, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CompileWith(arch.Workload{Kind: "nope", Bits: 16}, plan); err == nil || !strings.Contains(err.Error(), "unknown workload kind") {
		t.Errorf("CompileWith of an unknown kind: err = %v", err)
	}
	custom := arch.Workload{Kind: arch.KindCustom, Name: "bell", Bits: 3}
	if _, err := arch.PlanWorkload(custom); err == nil || !strings.Contains(err.Error(), "PlanCircuit") {
		t.Errorf("PlanWorkload of a custom workload: err = %v", err)
	}
	cw, err := m.CompileWith(arch.NewAdder(16, false), plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluateCompiled(context.Background(), cw, arch.EngineAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Metric("no_such_metric"); err == nil || !strings.Contains(err.Error(), `"no_such_metric"`) {
		t.Errorf("Metric of an unknown name: err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustMetric of an unknown name did not panic")
		}
	}()
	res.MustMetric("no_such_metric")
}

// TestEvaluateCompiledIntoMatches pins buffer reuse to a fresh result: for
// both engines and every paper kind, evaluating into a result whose metric
// buffer holds stale garbage must produce exactly the metrics a fresh
// Result receives.
func TestEvaluateCompiledIntoMatches(t *testing.T) {
	ctx := context.Background()
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	workloads := []arch.Workload{
		arch.NewAdder(32, false),
		arch.NewModExp(32),
		arch.NewQFT(16),
	}
	for _, engine := range arch.EngineNames() {
		// One result reused across every workload, so each call must both
		// overwrite the previous metrics and shrink/grow the buffer.
		got := arch.Result{Metrics: []arch.Metric{{Name: "stale", Value: -1}}}
		for _, w := range workloads {
			cw, err := m.Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := evaluateCompiled(ctx, cw, engine)
			if err != nil {
				t.Fatal(err)
			}
			if err := cw.Evaluate(ctx, engine, &got); err != nil {
				t.Fatalf("%s Evaluate(%s/%d): %v", engine, w.Kind, w.Bits, err)
			}
			if !sameMetrics(want, got) {
				t.Errorf("%s %s/%d: reused result diverges\n want: %v\n got:  %v",
					engine, w.Kind, w.Bits, want.Metrics, got.Metrics)
			}
		}
	}
}

// TestEvaluateCompiledIntoAllocationFree is the compile-once/evaluate-many
// allocation contract: with the simulation memoized in the plan and the
// metric buffer reused, a repeated des evaluation of the 64-bit adder
// performs zero allocations.
func TestEvaluateCompiledIntoAllocationFree(t *testing.T) {
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(64, false))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var res arch.Result
	if err := cw.Evaluate(ctx, arch.EngineDES, &res); err != nil { // warm buffers
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := cw.Evaluate(ctx, arch.EngineDES, &res); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state des Evaluate allocates %.1f times per run, want 0", avg)
	}
}
