package explore_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/cqla"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/phys"
)

// machineExp returns a small machine-backed experiment that exercises the
// whole evaluation path: In.Machine, the shared kernel plan, and a
// compiled evaluation per point.
func machineExp() *explore.Experiment {
	return &explore.Experiment{
		Name: "t-obs-machine",
		Axes: []explore.Axis{explore.Ints("blocks", 2, 4, 2)}, // one duplicate
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			m, err := in.Machine(arch.WithBlocks(in.Int("blocks")), arch.WithTransfers(4))
			if err != nil {
				return nil, err
			}
			res, err := in.Evaluate(ctx, m, arch.NewAdder(64, false))
			if err != nil {
				return nil, err
			}
			return []explore.Metric{{Name: "m0", Value: res.Metrics[0].Value}}, nil
		},
	}
}

// TestProgressSerialized is the -race regression test for the Progress
// concurrency contract: the callback may freely mutate unsynchronized
// state because the runner serializes every invocation. If the runner ever
// invoked Progress from two workers at once, the plain int increments and
// slice appends below would trip the race detector.
func TestProgressSerialized(t *testing.T) {
	exp := &explore.Experiment{
		Name: "t-progress-race",
		Axes: []explore.Axis{explore.Ints("i", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)},
		Eval: nopEval,
	}
	var (
		calls int
		seen  []int
	)
	_, err := explore.Run(context.Background(), exp, explore.Options{
		Parallel: 8,
		Progress: func(done, total int) {
			calls++ // unsynchronized on purpose
			seen = append(seen, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || len(seen) == 0 {
		t.Fatal("progress callback never ran")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("done counts not strictly increasing: %v", seen)
		}
	}
	if last := seen[len(seen)-1]; last != 16 {
		t.Errorf("final done = %d, want 16", last)
	}
}

// TestRunnerPointLatencyMetric: with a registry attached, Run records one
// cqla_point_eval_seconds observation per unique point, labeled by sweep
// and engine.
func TestRunnerPointLatencyMetric(t *testing.T) {
	exp := &explore.Experiment{
		Name: "t-obs-latency",
		Axes: []explore.Axis{
			explore.Ints("a", 1, 2, 1, 2), // 4 slots, 2 unique
			explore.Ints("b", 1, 2, 3),
		},
		Eval: nopEval,
	}
	reg := obs.NewRegistry()
	if _, err := explore.Run(context.Background(), exp, explore.Options{
		Parallel: 4,
		Obs:      reg,
	}); err != nil {
		t.Fatal(err)
	}
	h := reg.HistogramVec("cqla_point_eval_seconds",
		"Per-point evaluation latency of design-space sweeps.",
		nil, "sweep", "engine").With("t-obs-latency", arch.EngineAnalytic)
	if got := h.Count(); got != 6 {
		t.Errorf("point latency observations = %d, want 6 (unique points only)", got)
	}
}

// TestRunnerEvalCacheMetrics: the per-sweep evaluation cache reports its
// plan hits and misses when a registry is attached, and plans are its only
// tier — no machine or compiled-binding series is registered.
func TestRunnerEvalCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := explore.Run(context.Background(), machineExp(), explore.Options{
		Phys:     phys.Projected(),
		Parallel: 1, // serial: hit/miss splits are exact, no racing builds
		Obs:      reg,
	}); err != nil {
		t.Fatal(err)
	}
	// Two unique points (blocks=2 repeats) sharing one kernel plan.
	for _, c := range []struct {
		name string
		want float64
	}{
		{"cqla_evalcache_misses_total", 1},
		{"cqla_evalcache_hits_total", 1},
	} {
		got := metricValue(t, reg, c.name, map[string]string{"sweep": "t-obs-machine", "kind": "plan"})
		if got != c.want {
			t.Errorf("%s{kind=\"plan\"} = %g, want %g", c.name, got, c.want)
		}
	}
	fams := scrape(t, reg)
	for _, name := range []string{"cqla_evalcache_hits_total", "cqla_evalcache_misses_total"} {
		f := fams[name]
		if f == nil {
			t.Fatalf("%s is not registered", name)
		}
		for _, s := range f.Samples {
			if kind := s.Labels["kind"]; kind != "plan" {
				t.Errorf("%s has a kind=%q series; plans are the only tier", name, kind)
			}
		}
	}
}

// TestRunObservabilityTransparent pins the acceptance criterion that
// instrumentation must not change results: the same sweep emits
// byte-identical JSON with a registry and tracer attached and without.
func TestRunObservabilityTransparent(t *testing.T) {
	run := func(reg *obs.Registry, tr *obs.Tracer) []byte {
		exp, err := explore.Lookup("table4")
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if tr != nil {
			ctx = obs.WithTracer(ctx, tr)
		}
		pts, err := explore.Run(ctx, exp, explore.Options{
			Phys: phys.Projected(), Parallel: 4, Seed: 42, Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r := &explore.Report{Experiment: exp, Phys: "projected", Seed: 42, Points: pts}
		if err := r.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := run(nil, nil)
	instrumented := run(obs.NewRegistry(), obs.NewTracer())
	if !bytes.Equal(plain, instrumented) {
		t.Error("sweep JSON differs when observability is attached")
	}
}

// TestRunSpans: a tracer in the run context records per-point spans and
// the cache's compile-stage spans.
func TestRunSpans(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := explore.Run(ctx, machineExp(), explore.Options{
		Phys:     phys.Projected(),
		Parallel: 2,
		Obs:      obs.NewRegistry(),
	}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, sp := range tr.Spans() {
		counts[sp.Name()]++
	}
	if counts["point"] != 2 {
		t.Errorf("point spans = %d, want 2 (unique points)", counts["point"])
	}
	if counts["plan-compile"] != 2 {
		t.Errorf("plan-compile spans = %d, want 2", counts["plan-compile"])
	}
	if counts["dag-build"] != 1 {
		t.Errorf("dag-build spans = %d, want 1 (shared kernel plan)", counts["dag-build"])
	}
}

// TestRunSpansLazyKernel pins where the kernel build is paid: traced
// fig8b on the analytic engine prices the QFT in closed form and records
// no "dag-build" span, while the des engine simulates each size's circuit
// and records one per size.
func TestRunSpansLazyKernel(t *testing.T) {
	exp, err := explore.Lookup("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		engine string
		builds int
	}{
		{"analytic", 0},
		{"des", len(cqla.Fig8bSizes())},
	} {
		tr := obs.NewTracer()
		ctx := obs.WithTracer(context.Background(), tr)
		if _, err := explore.Run(ctx, exp, explore.Options{
			Phys:     phys.Projected(),
			Seed:     1,
			Engine:   c.engine,
			Parallel: 2,
		}); err != nil {
			t.Fatal(err)
		}
		builds := 0
		for _, sp := range tr.Spans() {
			if sp.Name() == "dag-build" {
				builds++
			}
		}
		if builds != c.builds {
			t.Errorf("%s fig8b: %d dag-build spans, want %d", c.engine, builds, c.builds)
		}
	}
}
