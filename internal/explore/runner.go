package explore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/phys"
)

// isCancellation reports whether err is a context teardown rather than a
// substantive evaluator failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Options configures one sweep run.
type Options struct {
	// Phys is the ion-trap technology point handed to every evaluator.
	Phys phys.Params
	// Parallel is the worker count; 0 or less selects GOMAXPROCS. The
	// result is identical at any setting — only wall-clock time changes.
	Parallel int
	// Seed is the base seed that per-point seeds derive from.
	Seed int64
	// Engine selects the arch evaluation engine machine-backed experiments
	// run through: "analytic" (or empty, the default closed-form model) or
	// "des" (discrete-event simulation). Unknown names fail the run before
	// any point evaluates.
	Engine string
	// Progress, if non-nil, is called after each point completes with the
	// running count and the sweep total.
	//
	// Concurrency contract: although points evaluate on a worker pool,
	// Progress calls are funneled through the runner's single progress
	// mutex — the callback is never invoked concurrently with itself, and
	// successive calls observe a strictly increasing done count ending at
	// total. The callback may therefore mutate unsynchronized state (the
	// job manager hands Job.setProgress here; the CLI writes to stderr),
	// but it runs on a worker goroutine with the progress lock held, so it
	// must not block — a slow callback stalls every worker.
	Progress func(done, total int)
	// Obs, if non-nil, receives run metrics: per-point evaluation latency
	// (cqla_point_eval_seconds, labeled by sweep and engine) and
	// kernel-plan cache hits/misses (cqla_evalcache_{hits,misses}_total,
	// labeled by sweep and kind="plan"). Instrument handles resolve once
	// per Run; the per-point cost is one clock read and a few atomic adds,
	// and nil disables everything at zero cost — sweep output is
	// byte-identical either way.
	Obs *obs.Registry

	// plans is the kernel-plan cache the run reads through. The job
	// Manager passes its server-lifetime cache here; when it is nil, as
	// for every other caller, Run plans into a fresh cache of its own that
	// dies with the sweep, so no plan outlives a CLI pass.
	plans *evalCache
}

// Run walks the experiment's cartesian product across a worker pool and
// returns one Point per configuration, in product order. Repeated
// coordinates (axes listing the same value twice) are evaluated once and
// shared. Run returns the context's error if it is canceled mid-sweep,
// or the first evaluator error, canceling the remaining points either way.
func Run(ctx context.Context, exp *Experiment, opt Options) ([]Point, error) {
	if exp == nil {
		return nil, fmt.Errorf("explore: Run with nil experiment")
	}
	if exp.Eval == nil {
		return nil, fmt.Errorf("explore: experiment %q has no evaluator", exp.Name)
	}
	total := exp.Size()
	if total == 0 {
		return nil, fmt.Errorf("explore: experiment %q has an empty design space", exp.Name)
	}
	engine, err := arch.NormalizeEngine(opt.Engine)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}

	// Memoize repeated points: group product indices by coordinate key and
	// evaluate one representative per group.
	type group struct {
		rep  int // representative product index
		idxs []int
	}
	var uniq []*group
	seen := make(map[string]*group)
	keys := make([]string, 0, total)
	for i := 0; i < total; i++ {
		k := key(exp.coordsAt(i))
		g, ok := seen[k]
		if !ok {
			g = &group{rep: i}
			seen[k] = g
			uniq = append(uniq, g)
			keys = append(keys, k)
		}
		g.idxs = append(g.idxs, i)
	}

	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(uniq) {
		workers = len(uniq)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Kernel plans shared across every point and worker: the caller's
	// cache, or one for this sweep alone. Deterministic and
	// byte-transparent — see evalCache.
	cache := opt.plans
	if cache == nil {
		cache = newEvalCache(planBudget, nil)
	}
	plans := newRunPlans(cache, opt.Obs, exp.Name)
	defer plans.release()

	// Observability handles resolve once here; nil stays nil all the way
	// down, so the disabled path costs a single pointer test per point.
	var pointDur *obs.Histogram
	if opt.Obs != nil {
		pointDur = opt.Obs.HistogramVec("cqla_point_eval_seconds",
			"Per-point evaluation latency of design-space sweeps.",
			nil, "sweep", "engine").With(exp.Name, engine)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	results := make([][]Metric, len(uniq))
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if runCtx.Err() != nil {
					continue
				}
				g := uniq[j]
				in := In{
					Phys:   opt.Phys,
					Seed:   pointSeed(opt.Seed, exp.Name, keys[j]),
					Engine: engine,
					Obs:    opt.Obs,
					exp:    exp,
					coords: exp.coordsAt(g.rep),
					plans:  plans,
				}
				// Span + latency sample per unique point. With no tracer in
				// ctx and a nil registry both lines below are no-ops that
				// allocate nothing.
				evalCtx, sp := obs.StartSpan(runCtx, "point")
				if sp != nil {
					sp.Annotate("sweep", exp.Name)
					sp.Annotate("coords", keys[j])
				}
				var t0 time.Time
				if pointDur != nil {
					t0 = obs.Now()
				}
				ms, err := exp.Eval(evalCtx, in)
				if pointDur != nil {
					pointDur.Observe(obs.Since(t0).Seconds())
				}
				sp.End()
				if err != nil {
					mu.Lock()
					// Prefer the root cause: a sibling evaluation collapsing
					// with context.Canceled after a real error tore the sweep
					// down must not mask that error, whichever reaches the
					// lock first.
					if firstErr == nil || (isCancellation(firstErr) && !isCancellation(err)) {
						firstErr = fmt.Errorf("explore: %s point %d: %w", exp.Name, g.rep, err)
					}
					mu.Unlock()
					cancel()
					continue
				}
				results[j] = ms
				mu.Lock()
				done += len(g.idxs)
				if opt.Progress != nil {
					opt.Progress(done, total)
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for j := range uniq {
		select {
		case jobs <- j:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		// A cancellation-only failure is worth reporting as such only when
		// the parent context really was canceled — and then the parent's
		// own error is the truthful one.
		if isCancellation(firstErr) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Assemble in product order; each point gets its own metric slice so a
	// Post hook can edit one member of a memoized group without aliasing
	// the others.
	pts := make([]Point, total)
	for j, g := range uniq {
		for _, i := range g.idxs {
			pts[i] = Point{
				Index:   i,
				Coords:  exp.coordsAt(i),
				Metrics: append([]Metric(nil), results[j]...),
			}
		}
	}
	if exp.Post != nil {
		pts = exp.Post(pts)
	}
	return pts, nil
}

// pointSeed derives the per-point seed from the base seed, the experiment
// name and the coordinate key — never from evaluation order — so results
// are reproducible at any parallelism.
func pointSeed(base int64, exp, key string) int64 {
	h := fnv.New64a()
	io.WriteString(h, exp)
	h.Write([]byte{0})
	io.WriteString(h, key)
	v := h.Sum64() + uint64(base)*0x9e3779b97f4a7c15
	// splitmix64 finalizer: decorrelates nearby base seeds.
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int64(v)
}
