package explore

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
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
