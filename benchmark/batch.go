package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/phys"
)

// task is one sweep document a batch pass produces: a registered (or
// estimator-bound montecarlo) experiment on one engine.
type task struct {
	exp       *explore.Experiment
	engine    string
	estimator string // montecarlo estimator; "" for the registered evaluator
}

// label names the sweep in span names and layer attribution:
// "table4", or "montecarlo/rare" for an estimator-bound sweep.
func (t task) label() string {
	if t.estimator == "" {
		return t.exp.Name
	}
	return t.exp.Name + "/" + t.estimator
}

// key names the document in the digest table: label@engine.
func (t task) key() string { return t.label() + "@" + t.engine }

// desSweeps are the machine-backed sweeps, the ones whose points go
// through the arch engine -engine selects.
var desSweeps = []string{"fig8a", "fig8b", "table4", "table5", "workload-blocks", "workloads", "xval"}

// batchTasks returns the sweeps one pass of a batch workload runs, in
// registry order.
func batchTasks(workload string) ([]task, error) {
	var tasks []task
	switch workload {
	case "paper-analytic":
		for _, e := range explore.Experiments() {
			tasks = append(tasks, task{exp: e, engine: arch.EngineAnalytic})
		}
	case "des-sweeps":
		for _, name := range desSweeps {
			e, err := explore.Lookup(name)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, task{exp: e, engine: arch.EngineDES})
		}
	case "mc-fast":
		for _, est := range []string{explore.EstimatorBitSliced, explore.EstimatorRare} {
			e, err := explore.NewMonteCarloExperiment(est)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, task{exp: e, engine: arch.EngineAnalytic, estimator: est})
		}
	default:
		return nil, fmt.Errorf("%q is not a batch workload", workload)
	}
	return tasks, nil
}

// runTask runs one sweep and renders its JSON document, as
// `cqla sweep <name> -format json` does. The sweep and its emit are
// wrapped in benchmark spans, which cost nothing without a tracer in ctx.
func runTask(ctx context.Context, t task, seed int64, workers int, reg *obs.Registry) ([]byte, error) {
	ctx, sp := obs.StartSpan(ctx, "sweep:"+t.label())
	defer sp.End()
	p := phys.Projected()
	pts, err := explore.Run(ctx, t.exp, explore.Options{
		Phys: p, Parallel: workers, Seed: seed, Engine: t.engine, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	_, esp := obs.StartSpan(ctx, "emit")
	defer esp.End()
	var buf bytes.Buffer
	rep := &explore.Report{Experiment: t.exp, Phys: p.Name, Seed: seed, Engine: t.engine, Estimator: t.estimator, Points: pts}
	if err := rep.Emit(&buf, "json"); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runPass runs every task in order under one "pass" span.
func runPass(ctx context.Context, tasks []task, seed int64, workers int, reg *obs.Registry) ([][]byte, error) {
	ctx, sp := obs.StartSpan(ctx, "pass")
	defer sp.End()
	docs := make([][]byte, len(tasks))
	for i, t := range tasks {
		doc, err := runTask(ctx, t, seed, workers, reg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.key(), err)
		}
		docs[i] = doc
	}
	return docs, nil
}

// verifyPass checks the documents of one pass at the workload seed
// against the digest table. A seed-dependent document is also rendered
// and checked at a pinned seed other than the workload seed, so its sweep
// is checked at every workload seed and set-up does the same work at
// each; at the workload seed it is then held to byte identity across
// passes, which the caller checks.
func verifyPass(ctx context.Context, tasks []task, docs [][]byte, seed int64, workers int, table digestTable) error {
	var errs []error
	for i, t := range tasks {
		err := table.check(t.key(), seed, docs[i])
		if errors.Is(err, errNoReference) {
			err = nil
		}
		if err == nil && table[t.key()].Normalized == "" {
			ref := int64(1)
			if seed == ref {
				ref = 2
			}
			var doc []byte
			if doc, err = runTask(ctx, t, ref, workers, nil); err == nil {
				err = table.check(t.key(), ref, doc)
			}
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// diffDocs reports the first document of a pass that differs from the
// verified one, or nil when the pass reproduced them all.
func diffDocs(tasks []task, got, want [][]byte) error {
	for i, t := range tasks {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("%s differs from the document verified at set-up", t.key())
		}
	}
	return nil
}

// batchResult is what a batch window measured.
type batchResult struct {
	attempted, failed int
	segs              []segment // one per untraced pass that succeeded
	tracedWalls       []float64 // seconds per traced pass
	rt                runtimeDelta
	untraced          int // untraced passes the runtime deltas cover
	layers            *layerSum
	firstErr          error
}

// fail counts a failed pass and keeps the first cause.
func (r *batchResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// runBatch runs closed-loop passes for the window: one driver, each pass
// after the previous one. A pass starts while less than half a mean pass
// remains of the window, so that the window is kept on average. With
// traced set, passes alternate between untraced (timed for the overhead
// baseline and the runtime counters) and traced (the per-layer
// breakdown). It stops after maxPasses passes instead when maxPasses > 0.
func runBatch(ctx context.Context, tasks []task, seed int64, workers int, expected [][]byte, window time.Duration, maxPasses int, traced bool) (*batchResult, error) {
	res := &batchResult{}
	if traced {
		res.layers = newLayerSum(workers)
	}
	start := time.Now()
	for i := 0; ; i++ {
		if maxPasses > 0 {
			if i >= maxPasses {
				return res, nil
			}
		} else if i > 0 && time.Since(start).Seconds()*float64(2*i+1)/float64(2*i) >= window.Seconds() {
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.attempted++
		tracedPass := res.layers != nil && i%2 == 1
		var tr *obs.Tracer
		var reg *obs.Registry
		passCtx := ctx
		if tracedPass {
			tr, reg = obs.NewTracer(), obs.NewRegistry()
			passCtx = obs.WithTracer(ctx, tr)
		}
		r0 := readRuntime()
		cpu0, err := cpuSeconds()
		if err != nil {
			return nil, err
		}
		op := opTime{start: time.Now()}
		docs, err := runPass(passCtx, tasks, seed, workers, reg)
		op.end = time.Now()
		cpu1, cerr := cpuSeconds()
		if cerr != nil {
			return nil, cerr
		}
		if !tracedPass {
			res.rt = res.rt.plus(readRuntime().minus(r0))
			res.untraced++
		}
		if err == nil {
			err = diffDocs(tasks, docs, expected)
		}
		switch {
		case err != nil:
			res.fail(err)
		case tracedPass:
			res.tracedWalls = append(res.tracedWalls, op.seconds())
			if err := res.layers.add(tr, reg, tasks); err != nil {
				return nil, err
			}
		default:
			res.segs = append(res.segs, segment{class: "pass", start: op.start, end: op.end, cpu: cpu1 - cpu0, ops: []opTime{op}})
		}
	}
}
