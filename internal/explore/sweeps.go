package explore

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/gen"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/transfer"
)

// Built-in experiments: every sweepable table and figure of the CQLA paper
// plus scenario sweeps the paper never printed. Names match the paper
// artifacts so `cqla sweep table4` regenerates Table 4's numbers.
func init() {
	Register(table2Exp())
	Register(table3Exp())
	Register(table4Exp())
	Register(table5Exp())
	Register(fig2Exp())
	Register(fig6aExp())
	Register(fig6bExp())
	Register(fig7Exp())
	Register(fig8aExp())
	Register(fig8bExp())
	Register(paretoExp())
	Register(overlapSensExp())
	Register(monteCarloExp(ecc.Naive))
	Register(xvalExp())
	Register(workloadsExp())
	Register(workloadBlocksExp())
}

// metricsFrom flattens an arch.Result into sweep metrics after any
// leading extras (e.g. the resolved block budget).
func metricsFrom(res arch.Result, extra ...Metric) []Metric {
	out := append([]Metric{}, extra...)
	for _, m := range res.Metrics {
		out = append(out, Metric{m.Name, m.Value})
	}
	return out
}

// pickMetrics reads named metrics from an arch.Result, in order.
func pickMetrics(res arch.Result, names ...string) ([]float64, error) {
	out := make([]float64, len(names))
	for i, n := range names {
		v, err := res.Metric(n)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// codeNames lists the region codes as axis values; arch.CodeByName
// resolves them back to ecc constructors, so the axis and the machine
// builder share one registry.
func codeNames() []string { return arch.CodeNames() }

// budgetBlocks resolves Table 4's per-size block budgets ("lo" and "hi"
// columns) for one input size.
func budgetBlocks(size int, budget string) (int, error) {
	pair, ok := cqla.PaperBlockCounts()[size]
	if !ok {
		return 0, fmt.Errorf("no paper block budget for %d bits", size)
	}
	switch budget {
	case "lo":
		return pair[0], nil
	case "hi":
		return pair[1], nil
	}
	return 0, fmt.Errorf("unknown budget %q", budget)
}

func table2Exp() *Experiment {
	return &Experiment{
		Name:  "table2",
		Title: "error-correction metrics per code and level (Table 2)",
		Axes: []Axis{
			Strings("code", codeNames()...),
			Ints("level", 1, 2),
		},
		Eval: func(_ context.Context, in In) ([]Metric, error) {
			c, err := arch.CodeByName(in.Str("code"))
			if err != nil {
				return nil, err
			}
			m := c.Metrics(in.Int("level"), in.Phys)
			return []Metric{
				{"ec_time_s", m.ECTime.Seconds()},
				{"transversal_s", m.TransversalGateTime.Seconds()},
				{"area_mm2", m.AreaMM2},
				{"data_ions", float64(m.DataIons)},
				{"ancilla_ions", float64(m.AncillaIons)},
			}, nil
		},
	}
}

func table3Exp() *Experiment {
	var labels []string
	for _, e := range transfer.Encodings() {
		labels = append(labels, e.String())
	}
	byLabel := func(label string) (transfer.Encoding, error) {
		for _, e := range transfer.Encodings() {
			if e.String() == label {
				return e, nil
			}
		}
		return transfer.Encoding{}, fmt.Errorf("unknown encoding %q", label)
	}
	return &Experiment{
		Name:  "table3",
		Title: "code-transfer network latency matrix (Table 3)",
		Axes: []Axis{
			Strings("from", labels...),
			Strings("to", labels...),
		},
		Eval: func(_ context.Context, in In) ([]Metric, error) {
			from, err := byLabel(in.Str("from"))
			if err != nil {
				return nil, err
			}
			to, err := byLabel(in.Str("to"))
			if err != nil {
				return nil, err
			}
			return []Metric{{"latency_s", transfer.MustLatency(from, to).Seconds()}}, nil
		},
	}
}

func table4Exp() *Experiment {
	return &Experiment{
		Name:  "table4",
		Title: "CQLA vs QLA specialization study (Table 4; code as an axis)",
		Axes: []Axis{
			Ints("size", cqla.PaperInputSizes()...),
			Strings("budget", "lo", "hi"),
			Strings("code", codeNames()...),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			n := in.Int("size")
			blocks, err := budgetBlocks(n, in.Str("budget"))
			if err != nil {
				return nil, err
			}
			m, err := in.Machine(
				arch.WithCodeName(in.Str("code")),
				arch.WithBlocks(blocks),
				arch.WithTransfers(10),
			)
			if err != nil {
				return nil, err
			}
			res, err := in.Evaluate(ctx, m, arch.NewAdder(n, false))
			if err != nil {
				return nil, err
			}
			if in.Engine != arch.EngineAnalytic {
				return metricsFrom(res, Metric{"blocks", float64(blocks)}), nil
			}
			// The analytic path keeps Table 4's historical metric names —
			// the golden test demands bitwise agreement with its table4 oracle.
			v, err := pickMetrics(res, "area_reduction", "l2_speedup", "gain_product")
			if err != nil {
				return nil, err
			}
			return []Metric{
				{"blocks", float64(blocks)},
				{"area_reduction", v[0]},
				{"speedup", v[1]},
				{"gain_product", v[2]},
			}, nil
		},
	}
}

func table5Exp() *Experiment {
	return &Experiment{
		Name:  "table5",
		Title: "memory-hierarchy speedups and gain products (Table 5)",
		Axes: []Axis{
			Strings("code", codeNames()...),
			Ints("transfers", 10, 5),
			Ints("size", cqla.Table5Sizes()...),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			n := in.Int("size")
			blocks, err := budgetBlocks(n, "lo")
			if err != nil {
				return nil, err
			}
			m, err := in.Machine(
				arch.WithCodeName(in.Str("code")),
				arch.WithBlocks(blocks),
				arch.WithTransfers(in.Int("transfers")),
			)
			if err != nil {
				return nil, err
			}
			res, err := in.Evaluate(ctx, m, arch.NewAdder(n, true))
			if err != nil {
				return nil, err
			}
			if in.Engine != arch.EngineAnalytic {
				return metricsFrom(res, Metric{"blocks", float64(blocks)}), nil
			}
			v, err := pickMetrics(res, "l1_speedup", "l2_speedup", "adder_speedup", "area_reduction", "gain_product")
			if err != nil {
				return nil, err
			}
			return []Metric{
				{"blocks", float64(blocks)},
				{"l1_speedup", v[0]},
				{"l2_speedup", v[1]},
				{"adder_speedup", v[2]},
				{"area_reduction", v[3]},
				{"gain_product", v[4]},
			}, nil
		},
	}
}

func fig2Exp() *Experiment {
	// Named fig2-makespan, not fig2: the cqla command keeps a hand-laid
	// `fig2` artifact (the bar-chart parallelism profile), and a same-named
	// sweep would be shadowed by it in direct dispatch.
	return &Experiment{
		Name:  "fig2-makespan",
		Title: "64-qubit adder makespan, unlimited vs block-limited (Figure 2)",
		Axes: []Axis{
			Ints("size", 64),
			Ints("blocks", 0, 15), // 0 = unlimited parallelism
		},
		Eval: func(_ context.Context, in In) ([]Metric, error) {
			slots := cqla.AdderKernel(in.Int("size")).Makespan(in.Int("blocks"))
			return []Metric{{"makespan_slots", float64(slots)}}, nil
		},
	}
}

func fig6aExp() *Experiment {
	return &Experiment{
		Name:  "fig6a",
		Title: "compute-block utilization curves (Figure 6a)",
		Axes: []Axis{
			Ints("size", cqla.PaperInputSizes()...),
			Ints("blocks", cqla.Fig6aBlockCounts()...),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			// Every block count of one size reads the sweep's shared adder
			// plan, so each size builds its DAG once.
			plan, err := in.Plan(arch.NewAdder(in.Int("size"), false))
			if err != nil {
				return nil, err
			}
			u := sched.UtilizationSweep(plan.DAG(ctx), []int{in.Int("blocks")})
			return []Metric{{"utilization", u[0]}}, nil
		},
	}
}

func fig6bExp() *Experiment {
	return &Experiment{
		Name:  "fig6b",
		Title: "superblock bandwidth balance (Figure 6b)",
		Axes:  []Axis{Ints("blocks", cqla.Fig6bBlockCounts()...)},
		Eval: func(_ context.Context, in In) ([]Metric, error) {
			sb := mesh.DefaultSuperblock()
			k := in.Int("blocks")
			return []Metric{
				{"available", sb.Available(k)},
				{"required_draper", sb.RequiredDraper(k)},
				{"required_worst", sb.RequiredWorst(k)},
				// crossover is Figure 6(b)'s headline number (the block
				// count where demand outgrows perimeter bandwidth); it is
				// sweep-wide, so every point carries the same value.
				{"crossover", float64(sb.Crossover())},
			}, nil
		},
	}
}

func fig7Exp() *Experiment {
	return &Experiment{
		Name:  "fig7",
		Title: "cache hit rates, naive vs optimized fetch (Figure 7)",
		Axes: []Axis{
			Ints("size", cqla.Fig7Sizes()...),
			Floats("cache_mult", 1, 1.5, 2),
		},
		Eval: func(_ context.Context, in In) ([]Metric, error) {
			n := in.Int("size")
			blocks, err := budgetBlocks(n, "lo")
			if err != nil {
				return nil, err
			}
			ad := gen.CarryLookahead(n)
			capQ := int(in.Float("cache_mult") * float64(blocks*cqla.BlockDataQubits))
			naive := cache.Simulate(ad.Circuit, cache.Config{CacheQubits: capQ, Policy: cache.Naive})
			opt := cache.Simulate(ad.Circuit, cache.Config{CacheQubits: capQ, Policy: cache.Optimized})
			return []Metric{
				{"cache_qubits", float64(capQ)},
				{"naive_hit", naive.HitRate()},
				{"optimized_hit", opt.HitRate()},
			}, nil
		},
	}
}

func fig8aExp() *Experiment {
	return &Experiment{
		Name:  "fig8a",
		Title: "modular exponentiation computation vs communication (Figure 8a)",
		Axes:  []Axis{Ints("size", cqla.PaperInputSizes()...)},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			n := in.Int("size")
			blocks, err := budgetBlocks(n, "lo")
			if err != nil {
				return nil, err
			}
			m, err := in.Machine(
				arch.WithCodeName("bacon-shor"),
				arch.WithBlocks(blocks),
				arch.WithTransfers(10),
			)
			if err != nil {
				return nil, err
			}
			res, err := in.Evaluate(ctx, m, arch.NewModExp(n))
			if err != nil {
				return nil, err
			}
			return metricsFrom(res), nil
		},
	}
}

func fig8bExp() *Experiment {
	return &Experiment{
		Name:  "fig8b",
		Title: "QFT computation vs communication (Figure 8b)",
		Axes:  []Axis{Ints("size", cqla.Fig8bSizes()...)},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			m, err := in.Machine(
				arch.WithCodeName("bacon-shor"),
				arch.WithBlocks(36),
				arch.WithTransfers(10),
			)
			if err != nil {
				return nil, err
			}
			res, err := in.Evaluate(ctx, m, arch.NewQFT(in.Int("size")))
			if err != nil {
				return nil, err
			}
			return metricsFrom(res), nil
		},
	}
}

// paretoExp opens a sweep the paper never printed: the gain-product Pareto
// frontier over (compute blocks, cache factor) for the 256-bit Bacon-Shor
// working point. The Post hook marks frontier membership: a point is on
// the frontier when no other point has both more area reduction and more
// speedup.
func paretoExp() *Experiment {
	return &Experiment{
		Name:  "pareto",
		Title: "gain-product Pareto frontier over (blocks, cache factor), 256-bit Bacon-Shor",
		Axes: []Axis{
			Ints("blocks", 4, 9, 16, 25, 36, 49, 64, 81, 100),
			Floats("cache_factor", 0.5, 1, 2, 3, 4),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			const n = 256
			m, err := in.Machine(
				arch.WithCodeName("bacon-shor"),
				arch.WithBlocks(in.Int("blocks")),
				arch.WithTransfers(10),
				arch.WithCacheFactor(in.Float("cache_factor")),
			)
			if err != nil {
				return nil, err
			}
			// The frontier marks compare closed-form blended speedups, so
			// this sweep always evaluates analytically whatever -engine is.
			res, err := in.EvaluateOn(ctx, m, arch.NewAdder(n, true), arch.EngineAnalytic)
			if err != nil {
				return nil, err
			}
			v, err := pickMetrics(res, "area_reduction", "adder_speedup", "gain_product")
			if err != nil {
				return nil, err
			}
			return []Metric{
				{"area_reduction", v[0]},
				{"adder_speedup", v[1]},
				{"gain_product", v[2]},
			}, nil
		},
		Post: func(pts []Point) []Point {
			for i := range pts {
				ai := pts[i].MustMetric("area_reduction")
				si := pts[i].MustMetric("adder_speedup")
				frontier := 1.0
				for j := range pts {
					if i == j {
						continue
					}
					aj := pts[j].MustMetric("area_reduction")
					sj := pts[j].MustMetric("adder_speedup")
					if aj >= ai && sj >= si && (aj > ai || sj > si) {
						frontier = 0
						break
					}
				}
				pts[i].Metrics = append(pts[i].Metrics, Metric{"on_frontier", frontier})
			}
			return pts
		},
	}
}

// overlapSensExp sweeps the transfer-overlap fraction the paper fixes at
// 0.9: how sensitive are the level-1 and blended speedups to how much
// memory<->cache transfer latency the static schedule actually hides?
func overlapSensExp() *Experiment {
	return &Experiment{
		Name:  "overlap-sens",
		Title: "speedup sensitivity to memory<->cache transfer overlap, 256-bit Bacon-Shor",
		Axes: []Axis{
			Floats("overlap", 0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99),
			Ints("transfers", 5, 10, 20),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			const n = 256
			// arch options are literal: overlap 0 models no overlap.
			m, err := in.Machine(
				arch.WithCodeName("bacon-shor"),
				arch.WithBlocks(36),
				arch.WithTransfers(in.Int("transfers")),
				arch.WithTransferOverlap(in.Float("overlap")),
			)
			if err != nil {
				return nil, err
			}
			// Stall and blended speedup are closed-form quantities; the
			// sweep pins the analytic engine.
			res, err := in.EvaluateOn(ctx, m, arch.NewAdder(n, true), arch.EngineAnalytic)
			if err != nil {
				return nil, err
			}
			v, err := pickMetrics(res, "stall_s", "l1_speedup", "adder_speedup")
			if err != nil {
				return nil, err
			}
			return []Metric{
				{"stall_s", v[0]},
				{"l1_speedup", v[1]},
				{"adder_speedup", v[2]},
			}, nil
		},
	}
}

// xvalExp cross-validates the closed-form model against the discrete-event
// simulator on the adder kernel: both engines evaluate the same machine
// and workload through the arch API, and the sweep reports the level-2
// time from each side plus their ratio. A ratio near 1 (the DES dispatches
// FIFO rather than critical-path-first, so it trails slightly) is the
// engines agreeing; communication_hidden confirms the no-memory-wall claim
// at the same points.
func xvalExp() *Experiment {
	return &Experiment{
		Name:  "xval",
		Title: "analytic vs discrete-event cross-validation on the adder kernel",
		Axes: []Axis{
			Ints("size", 32, 64, 128),
			Strings("code", codeNames()...),
		},
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			n := in.Int("size")
			blocks, err := budgetBlocks(n, "lo")
			if err != nil {
				return nil, err
			}
			m, err := in.Machine(
				arch.WithCodeName(in.Str("code")),
				arch.WithBlocks(blocks),
				arch.WithTransfers(10),
			)
			if err != nil {
				return nil, err
			}
			w := arch.NewAdder(n, false)
			a, err := in.EvaluateOn(ctx, m, w, arch.EngineAnalytic)
			if err != nil {
				return nil, err
			}
			s, err := in.EvaluateOn(ctx, m, w, arch.EngineDES)
			if err != nil {
				return nil, err
			}
			av, err := pickMetrics(a, "l2_time_s", "l2_speedup")
			if err != nil {
				return nil, err
			}
			sv, err := pickMetrics(s, "makespan_s", "sim_speedup", "communication_hidden")
			if err != nil {
				return nil, err
			}
			return []Metric{
				{"blocks", float64(blocks)},
				{"analytic_l2_s", av[0]},
				{"des_makespan_s", sv[0]},
				{"des_over_analytic", sv[0] / av[0]},
				{"l2_speedup", av[1]},
				{"sim_speedup", sv[1]},
				{"communication_hidden", sv[2]},
			}, nil
		},
	}
}

// Monte Carlo estimator names for the montecarlo sweep (`cqla sweep
// montecarlo -estimator ...`). The registered sweep runs the naive
// estimator; NewMonteCarloExperiment builds the sweep for any of them.
const (
	// EstimatorNaive is the PR 5 scalar path: one trial per decode, RNG
	// stream and output bytes frozen for reproducibility.
	EstimatorNaive = "naive"
	// EstimatorBitSliced runs the same experiment on the transposed batch
	// engine: 64 trials per word operation, an order of magnitude more
	// trials per second, its own (equally deterministic) RNG streams.
	EstimatorBitSliced = "bitsliced"
	// EstimatorRare adds importance sampling and an early stop: the
	// trials axis becomes a per-point budget, and points the naive
	// estimator cannot resolve report tight confidence intervals.
	EstimatorRare = "rare"
)

// Estimators lists the montecarlo estimator names, default first.
func Estimators() []string {
	return []string{EstimatorNaive, EstimatorBitSliced, EstimatorRare}
}

// NewMonteCarloExperiment returns the montecarlo sweep bound to the named
// estimator (empty selects naive). All variants share the sweep name and
// axes — per-point seeds and memoization keys are identical — and differ
// only in the evaluator, so `-estimator naive` output is byte-identical
// to the registered sweep's.
func NewMonteCarloExperiment(estimator string) (*Experiment, error) {
	switch estimator {
	case "", EstimatorNaive:
		return monteCarloExp(ecc.Naive), nil
	case EstimatorBitSliced:
		return monteCarloExp(ecc.BitSliced), nil
	case EstimatorRare:
		return monteCarloExp(ecc.Rare), nil
	}
	return nil, fmt.Errorf("explore: unknown estimator %q (have %v)", estimator, Estimators())
}

// mcAxes is the shared design space of every montecarlo estimator. The
// trials axis is an exact trial count for naive and bitsliced and a trial
// budget for the early-stopping rare-event estimator.
func mcAxes() []Axis {
	return []Axis{
		Strings("code", codeNames()...),
		Floats("physical_rate", 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2),
		Ints("trials", 1000000),
	}
}

// mcRender prints unresolved logical rates as "<bound" in text and CSV
// output — a bare 0 looks measured when it is only censored. The bound is
// the evaluator's rate_bound metric when present (bitsliced, rare), or
// the rule of three recomputed from the trials axis for the frozen naive
// metric set. Depends on mcAxes ordering: trials is the third axis.
func mcRender(pt Point, metric string, v float64) (string, bool) {
	if metric != "logical_rate" {
		return "", false
	}
	if res, err := pt.Metric("resolved"); err != nil || res != 0 {
		return "", false
	}
	bound, err := pt.Metric("rate_bound")
	if err != nil {
		bound = 3 / float64(pt.Coords[2].Int())
	}
	return "<" + formatMetric(bound), true
}

// mcRecord counts estimator work on the sweep's metrics registry:
// transposed 64-trial blocks decoded and trials spent, labeled by
// estimator. A nil registry records nothing.
func mcRecord(reg *obs.Registry, estimator string, trials int) {
	if reg == nil {
		return
	}
	reg.CounterVec("cqla_mc_blocks_total",
		"Transposed 64-trial Monte Carlo blocks decoded by sweep evaluators.",
		"estimator").With(estimator).Add(uint64((trials + 63) / 64))
	reg.CounterVec("cqla_mc_trials_total",
		"Monte Carlo trials spent by sweep evaluators (budget actually used).",
		"estimator").With(estimator).Add(uint64(trials))
}

// monteCarloExp sweeps the Pauli-frame Monte Carlo error injector over
// code × physical error rate, with the per-point deterministic seed the
// runner derives — the sweep reproduces bit-for-bit at any parallelism.
// Determinism holds at two levels: the runner derives each point's seed
// from its coordinates (never evaluation order), and ecc's MonteCarlo
// itself fans fixed-size shards with seed-derived sub-streams across a
// worker pool, so its counts are identical whether the point runs on one
// core or many. `-parallel` therefore changes wall-clock only, even
// though every evaluation is internally concurrent too.
//
// The sweep is built on one ecc estimator. Every variant shares the name,
// axes and renderer and differs in its sampler and metric set, each
// metric set in its own fixed order. The bit-sliced and rare-event
// samplers run under the mc-bitsliced and mc-rare spans
// (benchmark/layers.go attributes time by those names) and count their
// work with mcRecord; the frozen naive path has neither.
func monteCarloExp(est ecc.Estimator) *Experiment {
	label, span := EstimatorNaive, ""
	switch est {
	case ecc.BitSliced:
		label, span = EstimatorBitSliced, "mc-bitsliced"
	case ecc.Rare:
		label, span = EstimatorRare, "mc-rare"
	}
	return &Experiment{
		Name:   "montecarlo",
		Title:  "Monte Carlo logical X-error rate vs physical rate per code",
		Axes:   mcAxes(),
		Render: mcRender,
		Eval: func(ctx context.Context, in In) ([]Metric, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c, err := arch.CodeByName(in.Str("code"))
			if err != nil {
				return nil, err
			}
			p := in.Float("physical_rate")
			trials := in.Int("trials")
			if est == ecc.Naive {
				return naiveMetrics(p, trials, c.MonteCarlo(p, trials, in.Seed, ecc.MC{})), nil
			}
			_, sp := obs.StartSpan(ctx, span)
			r := c.MonteCarlo(p, trials, in.Seed, ecc.MC{Estimator: est})
			sp.End()
			mcRecord(in.Obs, label, r.Trials)
			resolved := 0.0
			if r.Resolved(ecc.TargetRelCI) {
				resolved = 1
			}
			if est == ecc.BitSliced {
				// The naive set plus the explicit confidence-interval
				// metrics the frozen set cannot grow.
				return []Metric{
					{"logical_rate", r.LogicalRate},
					{"logical_faults", float64(r.FaultTrials)},
					{"suppression_lb", p / r.RateBound},
					{"resolved", resolved},
					{"rate_bound", r.RateBound},
					{"rel_ci_95", r.RelCI()},
				}, nil
			}
			// The rare-event estimator's trials axis is a budget, so it
			// reports the trials it used and the rate it sampled at.
			return []Metric{
				{"logical_rate", r.LogicalRate},
				{"stderr", r.StdErr},
				{"rel_ci_95", r.RelCI()},
				{"resolved", resolved},
				{"rate_bound", r.RateBound},
				{"suppression_lb", p / r.RateBound},
				{"trials_used", float64(r.Trials)},
				{"fault_trials", float64(r.FaultTrials)},
				{"tilt_rate", r.TiltRate},
			}, nil
		},
	}
}

// naiveMetrics is the naive estimator's metric set. Rule of three: zero
// observed faults bounds the true logical rate at ~3/trials with 95%
// confidence, so suppression_lb stays a finite, honest lower bound at
// operating points the trial budget cannot resolve (resolved reports
// which). The set is frozen: naive output is byte-identical across
// releases, which is why the bound is not emitted.
func naiveMetrics(p float64, trials int, r ecc.MonteCarloResult) []Metric {
	logical := r.LogicalRate
	resolved, bound := 1.0, logical
	if r.FaultTrials == 0 {
		resolved, bound = 0, 3/float64(trials)
	}
	return []Metric{
		{"logical_rate", logical},
		{"logical_faults", float64(r.FaultTrials)},
		{"suppression_lb", p / bound},
		{"resolved", resolved},
	}
}
