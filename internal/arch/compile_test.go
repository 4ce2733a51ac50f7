package arch_test

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/arch"
)

// TestCompiledEvaluationIsByteIdentical is the cache-transparency
// contract: for both engines and every workload kind, evaluating through
// one plan shared across machines and engines — exactly what explore's
// per-sweep cache does — yields a byte-identical Result envelope to
// compiling a fresh plan for every evaluation.
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
				eng, err := m.Engine(engine)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := evaluate(ctx, m, eng, w)
				if err != nil {
					t.Fatalf("%s fresh-plan evaluation of %s/%d: %v", engine, w.Kind, w.Bits, err)
				}
				cw, err := m.CompileWith(w, plan)
				if err != nil {
					t.Fatalf("CompileWith(%s/%d): %v", w.Kind, w.Bits, err)
				}
				shared, err := arch.EvaluateCompiled(ctx, eng, cw)
				if err != nil {
					t.Fatalf("%s shared-plan evaluation of %s/%d: %v", engine, w.Kind, w.Bits, err)
				}
				fj, _ := json.Marshal(fresh)
				cj, _ := json.Marshal(shared)
				if string(fj) != string(cj) {
					t.Errorf("%s %s/%d: shared-plan evaluation diverges\n fresh:  %s\n shared: %s",
						engine, w.Kind, w.Bits, fj, cj)
				}
				// Evaluate-many on one compiled workload must be stable.
				again, err := arch.EvaluateCompiled(ctx, eng, cw)
				if err != nil {
					t.Fatal(err)
				}
				aj, _ := json.Marshal(again)
				if string(aj) != string(cj) {
					t.Errorf("%s %s/%d: repeated compiled evaluation drifts", engine, w.Kind, w.Bits)
				}
			}
		}
	}
}

// TestCompileRejectsForeignAndMismatched pins the safety rails: a compiled
// workload evaluated on another machine's engine errors, and a plan bound
// to the wrong workload errors.
func TestCompileRejectsForeignAndMismatched(t *testing.T) {
	m1, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := arch.New(arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := m1.Compile(arch.NewAdder(16, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range arch.EngineNames() {
		eng, err := m2.Engine(engine)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := arch.EvaluateCompiled(context.Background(), eng, cw); err == nil {
			t.Errorf("%s: evaluating another machine's compiled workload did not error", engine)
		}
		if _, err := arch.EvaluateCompiled(context.Background(), eng, nil); err == nil {
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

// TestResolveMatchesNew pins Resolve's contract as a cache key: it returns
// exactly the Config a built machine echoes, and errors exactly when New
// errors.
func TestResolveMatchesNew(t *testing.T) {
	optSets := [][]arch.Option{
		{},
		{arch.WithCodeName("bacon-shor"), arch.WithBlocks(49), arch.WithCacheFactor(3)},
		{arch.WithTransferOverlap(0), arch.WithSimChannels(4), arch.WithSimResidency(500)},
	}
	for i, opts := range optSets {
		cfg, err := arch.Resolve(opts...)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		m, err := arch.New(opts...)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if cfg != m.Config() {
			t.Errorf("set %d: Resolve = %+v, machine echoes %+v", i, cfg, m.Config())
		}
	}
	if _, err := arch.Resolve(arch.WithBlocks(0)); err == nil {
		t.Error("Resolve accepted zero blocks")
	}
	if _, err := arch.Resolve(arch.WithCodeName("nope")); err == nil {
		t.Error("Resolve accepted an unknown code name")
	}
}

// TestEvaluateCompiledIntoMatches pins buffer reuse to a fresh result: for
// both engines and every paper kind, writing into a result whose metric
// buffer holds stale garbage must produce the exact envelope the
// allocating arch.EvaluateCompiled returns.
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
		eng, err := m.Engine(engine)
		if err != nil {
			t.Fatal(err)
		}
		// One result reused across every workload, so each call must both
		// overwrite the previous metrics and shrink/grow the buffer.
		got := arch.Result{Metrics: []arch.Metric{{Name: "stale", Value: -1}}}
		for _, w := range workloads {
			cw, err := m.Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := arch.EvaluateCompiled(ctx, eng, cw)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.EvaluateCompiledInto(ctx, cw, &got); err != nil {
				t.Fatalf("%s EvaluateCompiledInto(%s/%d): %v", engine, w.Kind, w.Bits, err)
			}
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(got)
			if string(wj) != string(gj) {
				t.Errorf("%s %s/%d: Into variant diverges\n want: %s\n got:  %s",
					engine, w.Kind, w.Bits, wj, gj)
			}
		}
		var sink arch.Result
		if err := eng.EvaluateCompiledInto(ctx, nil, &sink); err == nil {
			t.Errorf("%s: EvaluateCompiledInto accepted a nil compile", engine)
		}
	}
}

// TestEvaluateCompiledIntoAllocationFree is the compile-once/evaluate-many
// allocation contract at the engine level: with the arena pooled at compile
// time and the metric buffer reused, a steady-state des evaluation of the
// 64-bit adder performs zero allocations.
func TestEvaluateCompiledIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector; the count means nothing")
	}
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineDES)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := m.Compile(arch.NewAdder(64, false))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var res arch.Result
	if err := eng.EvaluateCompiledInto(ctx, cw, &res); err != nil { // warm buffers
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := eng.EvaluateCompiledInto(ctx, cw, &res); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state EvaluateCompiledInto allocates %.1f times per run, want 0", avg)
	}
}
