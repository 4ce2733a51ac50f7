package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/explore"
	"repro/internal/obs"
)

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {420, 0.9},
		{999, 0.9}, {1000, 0.99}, {2600, 0.99}, {10000, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// At every count the reported tail has at least ten samples beyond it,
	// from 20 samples on, when the median first qualifies.
	for n := 20; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // unsorted input
		}
		v := quantile(xs, tailLevel(n))
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: %d samples beyond the tail, want at least 10", n, beyond)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

// TestRefFor checks which reference samples normalize an operation or a
// segment: those within refSpan of it, else the nearest one on either
// side; and which count as the sampler's own CPU time within it.
func TestRefFor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	s := &refSampler{at: []time.Time{at(0), at(1), at(2), at(5), at(9)}, cpu: []float64{1, 2, 4, 8, 16}}
	for _, c := range []struct {
		start, end, want float64
	}{
		{1.5, 1.6, 3},    // samples at 1 and 2
		{0.5, 1.5, 2},    // samples at 0, 1 and 2
		{3.5, 3.6, 6},    // none within half a second: 2 and 5 either side
		{10.5, 11, 16},   // past the last sample
		{-3, -2.5, 1},    // before the first
		{4.5, 4.5, 8},    // the sample at 5 only
		{0, 9, 4},        // every sample
		{6.2, 7.5, 12.0}, // none: 5 and 9 either side
	} {
		if got := s.refFor(at(c.start), at(c.end)); got != c.want {
			t.Errorf("refFor(%g, %g) = %g, want %g", c.start, c.end, got, c.want)
		}
	}
	if got := s.cpuIn(at(0.5), at(5)); got != 2+4+8 {
		t.Errorf("cpuIn(0.5, 5) = %g, want 14", got)
	}
}

// TestCombineWeighsClassesEqually checks that an operation metric is the
// geometric mean of its classes' values, whatever share of the
// operations each class holds.
func TestCombineWeighsClassesEqually(t *testing.T) {
	many := &classOut{CPURef: 2000}
	for i := 0; i < 1000; i++ {
		many.LatS = append(many.LatS, 0.001)
		many.Norm = append(many.Norm, 1)
	}
	few := &classOut{LatS: []float64{0.1}, Norm: []float64{100}, CPURef: 50}
	out := &outcome{Classes: map[string]*classOut{"hit": many, "miss": few}, Refs: []float64{refNominal}}
	m, _, _ := combine(config{workload: "serve-mix"}, []*outcome{out}, []float64{1}, io.Discard)
	want := map[string]float64{"op_mean_ref": 10, "cpu_per_op_ref": 10, "setup_s": 1}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	if got := geomean([]float64{2, 8, 0}); got != 0 {
		t.Errorf("geomean with a zero = %g, want 0", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: 0, parent: -1, name: "sweep:x", start: 0, end: 10},
		{id: 1, parent: 0, name: "point", start: 1, end: 4},
		{id: 2, parent: 0, name: "point", start: 2, end: 6}, // overlaps span 1
		{id: 3, parent: 0, name: "point", start: 8, end: 9},
		{id: 4, parent: 0, name: "point", start: 9.5, end: 12}, // clipped at 10
	}
	tree := newSpanTree(spans)
	// Children cover [1,6] ∪ [8,9] ∪ [9.5,10] = 6.5 of the 10 s.
	if got := tree.selfTime(spans[0]); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("self time %g, want 3.5", got)
	}
	if got := tree.selfTime(spans[1]); got != 3 {
		t.Errorf("leaf self time %g, want its duration 3", got)
	}
}

// TestWorkerSecondIdentity checks the layer attribution on a hand-built
// two-worker pass: every row, and that the rows add up to workers x wall.
func TestWorkerSecondIdentity(t *testing.T) {
	spans := []span{
		{id: 0, parent: -1, name: "pass", start: 0, end: 10},
		// fig7: points on two workers, then emit.
		{id: 1, parent: 0, name: "sweep:fig7", start: 0.5, end: 6.2},
		{id: 2, parent: 1, name: "point", start: 0.5, end: 3},
		{id: 3, parent: 1, name: "point", start: 0.6, end: 5.5},
		{id: 4, parent: 1, name: "point", start: 3.1, end: 6},
		{id: 5, parent: 1, name: "emit", start: 6, end: 6.2},
		// table4: nested program spans.
		{id: 6, parent: 0, name: "sweep:table4", start: 6.5, end: 9.5},
		{id: 7, parent: 6, name: "point", start: 6.6, end: 8},
		{id: 8, parent: 7, name: "dag-build", start: 6.7, end: 7.5},
		{id: 9, parent: 7, name: "analytic-eval", start: 7.6, end: 7.9},
		{id: 10, parent: 6, name: "point", start: 6.6, end: 9},
		{id: 11, parent: 10, name: "plan-compile", start: 6.7, end: 7},
		{id: 12, parent: 11, name: "dag-build", start: 6.8, end: 6.9},
		{id: 13, parent: 10, name: "no-such-layer", start: 8, end: 8.5},
		{id: 14, parent: 6, name: "emit", start: 9.1, end: 9.4},
	}
	rows, wall, err := attribute(spans, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cache.sim_s":          2.5 + 4.9 + 2.9,
		"circuit.dag_build_s":  0.8 + 0.1,
		"cqla.analytic_eval_s": 0.3,
		"arch.plan_compile_s":  0.2,
		// table4 point self time plus the unknown span.
		"explore.eval_other_s": (1.4 - 0.8 - 0.3) + (2.4 - 0.3 - 0.5) + 0.5,
		// fig7: 2 x 5.5 s of parallel phase minus 10.3 s in points;
		// table4: 2 x 2.4 - 3.8.
		"explore.idle_s": (11 - 10.3) + (4.8 - 3.8),
		// Sweep time outside points and emit: fig7 none, table4 0.1 at
		// each end and 0.1 before its emit.
		"explore.serial_s":     2 * 0.3,
		"explore.emit_s":       2 * (0.2 + 0.3),
		"bench.unattributed_s": 2 * (10 - 5.7 - 3),
	}
	for k, v := range want {
		if math.Abs(rows[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, rows[k], v)
		}
	}
	if wall != 10 {
		t.Errorf("wall %g, want 10", wall)
	}
	if gap := identityGap(rows, wall, 2); gap > 1e-12 {
		t.Errorf("rows miss workers x wall by %g", gap)
	}
}

// TestWorkerSecondIdentityTracedPass checks the identity on a real
// two-worker traced pass of the pareto sweep, read back from the Chrome
// trace export.
func TestWorkerSecondIdentityTracedPass(t *testing.T) {
	e, err := explore.Lookup("pareto")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	tasks := []task{{exp: e, engine: arch.EngineAnalytic}}
	if _, err := runPass(obs.WithTracer(context.Background(), tr), tasks, 1, 2, obs.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := spansFromChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, wall, err := attribute(spans, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gap := identityGap(rows, wall, 2); gap > 0.01 {
		t.Errorf("rows miss workers x wall by %.3f%%: %v", 100*gap, rows)
	}
	if rows["cqla.analytic_eval_s"] <= 0 || rows["explore.eval_other_s"] <= 0 {
		t.Errorf("pareto pass attributed nothing to its evaluation layers: %v", rows)
	}
}
