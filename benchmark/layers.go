package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Layer rows of a traced batch pass, in worker-seconds per pass. A pass of
// wall time T on W workers offers W*T worker-seconds, and the rows
// partition them exactly:
//
//   - spans inside a sweep point contribute their self time to the row of
//     their layer (point self time goes to the row of the sweep's model);
//   - explore.idle_s is worker time inside a sweep's parallel phase not
//     spent in any point, behind stragglers;
//   - explore.serial_s, explore.emit_s and bench.unattributed_s are the
//     self time of the sweep, emit and pass spans, charged W times
//     because every worker waits through them.
var layerRows = []string{
	"cache.sim_s",
	"sched.sched_s",
	"ecc.mc_naive_s",
	"ecc.mc_bitsliced_s",
	"ecc.mc_rare_s",
	"circuit.dag_build_s",
	"arch.plan_compile_s",
	"des.sim_run_s",
	"des.eval_self_s",
	"cqla.analytic_eval_s",
	"arch.decode_s",
	"explore.eval_other_s",
	"explore.idle_s",
	"explore.serial_s",
	"explore.emit_s",
	"bench.unattributed_s",
}

// spanLayer maps the program's own span names to layer rows. A span name
// not listed here counts toward explore.eval_other_s.
var spanLayer = map[string]string{
	"dag-build":     "circuit.dag_build_s",
	"plan-compile":  "arch.plan_compile_s",
	"sim-run":       "des.sim_run_s",
	"des-eval":      "des.eval_self_s",
	"analytic-eval": "cqla.analytic_eval_s",
	"decode":        "arch.decode_s",
	"mc-bitsliced":  "ecc.mc_bitsliced_s",
	"mc-rare":       "ecc.mc_rare_s",
}

// pointLayer maps a sweep label to the row its point self time belongs
// to: the sweeps whose model runs inline in the evaluator, with no span
// of its own.
var pointLayer = map[string]string{
	"fig7":          "cache.sim_s",
	"fig2-makespan": "sched.sched_s",
	"fig6a":         "sched.sched_s",
	"montecarlo":    "ecc.mc_naive_s",
}

// span is one recorded span, times in seconds from the tracer's epoch.
type span struct {
	id, parent int
	name       string
	start, end float64
	args       map[string]string
}

func (s span) dur() float64 { return s.end - s.start }

// spansFromChrome reads spans back from a Chrome trace export, the
// tracer's only view of start times and parentage.
func spansFromChrome(r io.Reader) ([]span, error) {
	var evs []struct {
		Name string            `json:"name"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	}
	if err := json.NewDecoder(r).Decode(&evs); err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	spans := make([]span, len(evs))
	for i, ev := range evs {
		s := span{id: i, parent: -1, name: ev.Name, start: ev.Ts / 1e6, end: (ev.Ts + ev.Dur) / 1e6, args: ev.Args}
		if v, ok := ev.Args["span_id"]; ok {
			id, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("span %d: bad span_id %q", i, v)
			}
			s.id = id
		}
		if v, ok := ev.Args["parent_span"]; ok {
			p, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("span %d: bad parent_span %q", i, v)
			}
			s.parent = p
		}
		spans[i] = s
	}
	return spans, nil
}

// covered returns the length of the union of the intervals, each clipped
// to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	var c [][2]float64
	for _, v := range iv {
		a, b := math.Max(v[0], lo), math.Min(v[1], hi)
		if b > a {
			c = append(c, [2]float64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	total, curA, curB := 0.0, 0.0, math.Inf(-1)
	for _, v := range c {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
			continue
		}
		curB = math.Max(curB, v[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// spanTree indexes spans by id and their children by parent id.
type spanTree struct {
	byID     map[int]span
	children map[int][]span
}

func newSpanTree(spans []span) spanTree {
	t := spanTree{byID: make(map[int]span, len(spans)), children: make(map[int][]span)}
	for _, s := range spans {
		t.byID[s.id] = s
		if s.parent >= 0 {
			t.children[s.parent] = append(t.children[s.parent], s)
		}
	}
	return t
}

// childCover returns how much of s the union of its children (those
// passing keep, or all when keep is nil) covers.
func (t spanTree) childCover(s span, keep func(span) bool) float64 {
	var iv [][2]float64
	for _, c := range t.children[s.id] {
		if keep == nil || keep(c) {
			iv = append(iv, [2]float64{c.start, c.end})
		}
	}
	return covered(iv, s.start, s.end)
}

// selfTime is the span's duration minus the part its children cover,
// counting time under overlapping children once.
func (t spanTree) selfTime(s span) float64 { return s.dur() - t.childCover(s, nil) }

// sweepOf returns the label of the sweep span enclosing s, or "".
func (t spanTree) sweepOf(s span) string {
	for {
		if label, ok := strings.CutPrefix(s.name, "sweep:"); ok {
			return label
		}
		p, ok := t.byID[s.parent]
		if !ok {
			return ""
		}
		s = p
	}
}

// attribute splits the traced passes among the layer rows, in
// worker-seconds, and returns the rows with the summed pass wall time.
func attribute(spans []span, workers int) (map[string]float64, float64, error) {
	t := newSpanTree(spans)
	w := float64(workers)
	rows := make(map[string]float64, len(layerRows))
	wall := 0.0
	for _, s := range spans {
		self := t.selfTime(s)
		switch {
		case s.name == "pass" && s.parent < 0:
			wall += s.dur()
			rows["bench.unattributed_s"] += w * self
		case strings.HasPrefix(s.name, "sweep:"):
			rows["explore.serial_s"] += w * self
			notEmit := func(c span) bool { return c.name != "emit" }
			inPoints := 0.0
			for _, c := range t.children[s.id] {
				if notEmit(c) {
					inPoints += c.dur()
				}
			}
			rows["explore.idle_s"] += w*t.childCover(s, notEmit) - inPoints
		case s.name == "emit":
			rows["explore.emit_s"] += w * self
		case s.name == "point":
			row, ok := pointLayer[t.sweepOf(s)]
			if !ok {
				row = "explore.eval_other_s"
			}
			rows[row] += self
		default:
			if s.parent < 0 {
				return nil, 0, fmt.Errorf("span %q outside any pass", s.name)
			}
			row, ok := spanLayer[s.name]
			if !ok {
				row = "explore.eval_other_s"
			}
			rows[row] += self
		}
	}
	return rows, wall, nil
}

// identityGap returns |W*wall - Σ rows| / (W*wall): zero when the rows
// account for every worker-second of the passes.
func identityGap(rows map[string]float64, wall float64, workers int) float64 {
	total := 0.0
	for _, v := range rows {
		total += v
	}
	ws := float64(workers) * wall
	if ws == 0 {
		return 0
	}
	return math.Abs(ws-total) / ws
}

// layerSum accumulates the traced passes of one run.
type layerSum struct {
	workers int
	passes  int
	wall    float64
	rows    map[string]float64
	counts  map[string]float64 // registry counters summed over passes
	budget  float64            // rare-estimator trial budget summed over passes
	chrome  []byte             // Chrome trace of the last traced pass
}

func newLayerSum(workers int) *layerSum {
	return &layerSum{workers: workers, rows: make(map[string]float64), counts: make(map[string]float64)}
}

// add folds one traced pass in: its spans, checked against the
// worker-second identity, and the counters its sweeps recorded.
func (l *layerSum) add(tr *obs.Tracer, reg *obs.Registry, tasks []task) error {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return err
	}
	l.chrome = buf.Bytes()
	spans, err := spansFromChrome(bytes.NewReader(l.chrome))
	if err != nil {
		return err
	}
	rows, wall, err := attribute(spans, l.workers)
	if err != nil {
		return err
	}
	if gap := identityGap(rows, wall, l.workers); gap > 0.01 {
		return fmt.Errorf("layer rows miss the worker-second identity by %.2f%%", 100*gap)
	}
	for k, v := range rows {
		l.rows[k] += v
	}
	l.wall += wall
	l.passes++

	fams, err := scrapeRegistry(reg)
	if err != nil {
		return err
	}
	for name, v := range registryCounts(fams) {
		l.counts[name] += v
	}
	for _, t := range tasks {
		if t.estimator == "rare" {
			l.budget += trialBudget(t)
		}
	}
	return nil
}

// trialBudget sums the trials axis over a montecarlo sweep's points.
func trialBudget(t task) float64 {
	for _, a := range t.exp.Axes {
		if a.Name != "trials" {
			continue
		}
		sum := 0.0
		for _, v := range a.Values {
			sum += v.Float()
		}
		return sum * float64(t.exp.Size()/len(a.Values))
	}
	return 0
}

// metrics reports the per-pass layer table and its counters.
func (l *layerSum) metrics(m map[string]float64) {
	if l.passes == 0 {
		return
	}
	n := float64(l.passes)
	for _, r := range layerRows {
		m[r] = l.rows[r] / n
	}
	m["explore.points"] = l.counts["points"] / n
	for _, kind := range []string{"machine", "plan", "compiled"} {
		m["evalcache."+kind+"_hit_ratio"] = ratio(l.counts["evalcache_hits_"+kind], l.counts["evalcache_hits_"+kind]+l.counts["evalcache_misses_"+kind])
	}
	trials := l.counts["mc_trials_bitsliced"] + l.counts["mc_trials_rare"]
	m["ecc.trials"] = trials / n
	m["ecc.trials_per_s"] = ratio(trials, l.rows["ecc.mc_bitsliced_s"]+l.rows["ecc.mc_rare_s"])
	m["ecc.rare_budget_used_frac"] = ratio(l.counts["mc_trials_rare"], l.budget)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTable prints the layers table: each row per pass, its share of
// the pass's worker-seconds, and the identity it sums to.
func (l *layerSum) writeTable(w io.Writer, workload string) {
	n := float64(l.passes)
	ws := float64(l.workers) * l.wall / n
	fmt.Fprintf(w, "layers %s: %d traced passes, %d workers, %.4f s wall/pass, %.4f worker-s/pass\n",
		workload, l.passes, l.workers, l.wall/n, ws)
	total := 0.0
	for _, r := range layerRows {
		v := l.rows[r] / n
		total += v
		fmt.Fprintf(w, "  %-24s %10.4f worker-s %6.2f%%\n", r, v, 100*ratio(v, ws))
	}
	fmt.Fprintf(w, "  %-24s %10.4f worker-s %6.2f%% (workers x wall = %.4f)\n", "sum", total, 100*ratio(total, ws), ws)
}
