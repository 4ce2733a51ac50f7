// Command cqla regenerates every table and figure of the CQLA paper
// (Thaker et al., ISCA 2006) from the architecture model in this
// repository, and runs open design-space sweeps through the exploration
// engine in internal/explore.
//
// Usage:
//
//	cqla [-current] <experiment>
//	cqla sweep <name> [-format text|json|csv] [-engine analytic|des] [-parallel N] [-seed S] [-trace out.json]
//	cqla sweep -circuit file.qc [same flags]
//	cqla serve [-addr :8400] [-pprof] [-log-level info] [-log-format text|json]
//	cqla bench [-filter re] [-out BENCH.json] [-benchtime d] [-baseline old.json [-gate pct]]
//
// Most experiments live in the explore registry and accept either form:
// the first prints an aligned text table, the second adds machine-readable
// output, an evaluation-engine switch (the closed-form model or the
// discrete-event simulator, both behind the internal/arch API), a
// worker-pool parallelism knob and deterministic seeding. `cqla serve`
// exposes the same registry over HTTP. A few artifacts whose output is not
// a point set (the Figure 2 parallelism profile, the ASCII floorplan, the
// discrete-event overlap check) keep hand-laid layouts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/phys"
)

// specials are the artifacts that are not point sweeps: their output is a
// profile, a floorplan drawing or a simulation trace, so they bypass the
// exploration engine.
var specials = map[string]func(phys.Params){
	"table1":    table1,
	"fig2":      fig2,
	"floorplan": floorplan,
	"overlap":   overlap,
}

var specialOrder = []string{"table1", "fig2", "floorplan", "overlap"}

func main() {
	flag.Usage = usage
	current := flag.Bool("current", false, "use currently demonstrated ion-trap parameters instead of projected")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	name := strings.ToLower(flag.Arg(0))
	if name == "sweep" {
		runSweep(flag.Args()[1:], *current)
		return
	}
	if name == "serve" {
		runServe(flag.Args()[1:])
		return
	}
	if name == "bench" {
		runBench(flag.Args()[1:])
		return
	}
	if flag.NArg() > 1 {
		fmt.Fprintf(os.Stderr, "cqla: unexpected arguments after %q: %q (for sweep flags use: cqla sweep %s [flags])\n\n", name, flag.Args()[1:], name)
		usage()
		os.Exit(2)
	}
	p := phys.Projected()
	if *current {
		p = phys.Current()
	}
	switch {
	case name == "all":
		runAll(p)
	case specials[name] != nil:
		specials[name](p)
	default:
		exp, err := explore.Lookup(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cqla: unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
		emitSweep(exp, p, "text", arch.EngineAnalytic, "", 0, 1, false, "")
	}
}

// runAll regenerates every artifact: the hand-laid specials first, then
// every registered sweep as a text table.
func runAll(p phys.Params) {
	for _, k := range specialOrder {
		fmt.Printf("==== %s ====\n", k)
		specials[k](p)
		fmt.Println()
	}
	for _, e := range explore.Experiments() {
		fmt.Printf("==== sweep %s ====\n", e.Name)
		emitSweep(e, p, "text", arch.EngineAnalytic, "", 0, 1, false, "")
		fmt.Println()
	}
}

// runSweep handles `cqla sweep <name> [flags]` and
// `cqla sweep -circuit file.qc [flags]`.
func runSweep(args []string, current bool) {
	fs := flag.NewFlagSet("cqla sweep", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text, json or csv")
	engine := fs.String("engine", "analytic", "evaluation engine for machine-backed sweeps: analytic or des")
	estimator := fs.String("estimator", "naive", "montecarlo estimator: naive (scalar), bitsliced (64-trial batch) or rare (importance sampling + early stop); montecarlo sweep only")
	parallel := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "base seed for stochastic sweeps")
	cur := fs.Bool("current", current, "use currently demonstrated ion-trap parameters instead of projected")
	progress := fs.Bool("progress", false, "report point completion on stderr")
	trace := fs.String("trace", "", "write a Chrome trace_event JSON of the sweep to this path (open in chrome://tracing or https://ui.perfetto.dev)")
	circuitPath := fs.String("circuit", "", "sweep a custom circuit file (text format, see docs/workload-format.md) across block budgets instead of a registered sweep")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cqla sweep <name> [flags]\n       cqla sweep -circuit file.qc [flags]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nSweeps:\n")
		listSweeps(os.Stderr)
	}
	// A leading flag is allowed only for the -circuit form; a registered
	// sweep is always named first.
	name := ""
	if len(args) >= 1 && !strings.HasPrefix(args[0], "-") {
		name = strings.ToLower(args[0])
		args = args[1:]
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "cqla: unexpected arguments after sweep name: %q\n\n", fs.Args())
		fs.Usage()
		os.Exit(2)
	}
	var exp *explore.Experiment
	switch {
	case *circuitPath != "" && name != "":
		fmt.Fprintf(os.Stderr, "cqla: use either a sweep name or -circuit, not both\n\n")
		fs.Usage()
		os.Exit(2)
	case *circuitPath != "":
		var err error
		if exp, err = circuitExperiment(*circuitPath); err != nil {
			fmt.Fprintf(os.Stderr, "cqla: %v\n", err)
			os.Exit(2)
		}
	case name == "":
		fs.Usage()
		os.Exit(2)
	default:
		var err error
		if exp, err = explore.Lookup(name); err != nil {
			fmt.Fprintf(os.Stderr, "cqla: unknown sweep %q\n\nSweeps:\n", name)
			listSweeps(os.Stderr)
			os.Exit(2)
		}
	}
	if !validFormat(*format) {
		fmt.Fprintf(os.Stderr, "cqla: unknown format %q (have %s)\n", *format, strings.Join(explore.Formats(), ", "))
		os.Exit(2)
	}
	eng, err := arch.NormalizeEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cqla: %v\n", err)
		os.Exit(2)
	}
	// The estimator axis only applies to the montecarlo sweep; a non-default
	// value swaps in that sweep's estimator-specific evaluator.
	est := ""
	if *estimator != "" && *estimator != explore.EstimatorNaive {
		if name != "montecarlo" {
			fmt.Fprintf(os.Stderr, "cqla: -estimator applies only to the montecarlo sweep, not %q\n", exp.Name)
			os.Exit(2)
		}
		var err error
		if exp, err = explore.NewMonteCarloExperiment(*estimator); err != nil {
			fmt.Fprintf(os.Stderr, "cqla: %v\n", err)
			os.Exit(2)
		}
		est = *estimator
	}
	p := phys.Projected()
	if *cur {
		p = phys.Current()
	}
	emitSweep(exp, p, *format, eng, est, *parallel, *seed, *progress, *trace)
}

// runServe handles `cqla serve [flags]`: the registry-driven HTTP API
// behind a production-shaped http.Server — read/write timeouts, a job
// manager with result caching, and signal-driven graceful shutdown that
// drains in-flight jobs before exit.
func runServe(args []string) {
	fs := flag.NewFlagSet("cqla serve", flag.ExitOnError)
	addr := fs.String("addr", ":8400", "listen address")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "result-cache LRU budget in bytes (0 disables caching)")
	maxEval := fs.Int("max-evaluations", 1, "sweep evaluations running at once; further jobs queue")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs and requests")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: cqla serve [flags]

Serves the sweep registry as a JSON API:
  GET  /v1/sweeps              list registered sweeps
  POST /v1/sweeps/{name}:run   run one; body {"phys","seed","parallel","engine","async"}
  GET  /v1/jobs                list jobs, newest first
  GET  /v1/jobs/{id}           job state, progress, report when done
  GET  /v1/jobs/{id}/report    raw report document of a done job
  GET  /v1/version             schema version and build identity
  GET  /metrics                Prometheus text exposition (jobs, caches,
                               per-sweep evaluation latency, HTTP)
  /debug/pprof/...             Go profiling endpoints (with -pprof)

Identical runs — same (sweep, phys, seed, engine) at any parallelism —
coalesce onto one evaluation and repeats are served from an in-memory LRU
cache (the X-Cache response header says which). An {"async": true} run
returns 202 with a job id to poll. SIGINT/SIGTERM drains in-flight jobs
for up to -drain before exiting. Requests and job lifecycles are logged
to stderr as structured logs (-log-level, -log-format).

Flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "cqla: unexpected arguments: %q\n\n", fs.Args())
		fs.Usage()
		os.Exit(2)
	}
	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "cqla: unknown -log-format %q (have text, json)\n", *logFormat)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel), *logFormat == "json")
	api := explore.NewServer(
		explore.WithCacheBytes(*cacheBytes),
		explore.WithMaxEvaluations(*maxEval),
		explore.WithObservability(obs.NewRegistry()),
		explore.WithLogger(logger),
		explore.WithPprof(*pprofOn),
	)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second, // request bodies are tiny JSON
		// Synchronous runs stream only after the sweep finishes, so the
		// write timeout bounds slow clients, not slow sweeps — but a very
		// long sweep should still use {"async": true}.
		WriteTimeout: 10 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("cqla: serving %d sweeps on %s", len(explore.Names()), *addr)
	select {
	case err := <-errc:
		log.Fatal(err) // listen failure: bad address, port in use
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("cqla: signal received; draining jobs (up to %v)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := api.Shutdown(sctx); err != nil {
			log.Printf("cqla: job drain incomplete: %v", err)
		}
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("cqla: server shutdown: %v", err)
		}
	}
}

// runBench handles `cqla bench [flags]`: the perf harness over the
// registered benchmark suite, emitting the versioned BENCH.json document
// and, with -baseline, a benchstat-style delta table against a previous
// document (the CI regression gate's only path).
func runBench(args []string) {
	fs := flag.NewFlagSet("cqla bench", flag.ExitOnError)
	filter := fs.String("filter", "", "regexp selecting benchmarks by name (default: all)")
	out := fs.String("out", "", "write BENCH.json to this path (default: stdout)")
	list := fs.Bool("list", false, "list registered benchmarks and exit")
	benchtime := fs.Duration("benchtime", perf.DefaultBenchTime, "per-benchmark measurement budget")
	baseline := fs.String("baseline", "", "compare against a previous BENCH.json and print a delta table")
	gate := fs.Float64("gate", 0, "with -baseline: exit nonzero when the sec/op geomean over rows whose baseline is >= "+perf.GateFloor.String()+" regresses more than this percent (0 disables)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: cqla bench [-filter re] [-out BENCH.json] [-benchtime d] [-baseline old.json [-gate pct]] [-list]

Runs the registered performance suite through the native measurement loop
and writes a versioned, machine-readable report (schema_version %d):
ns/op, B/op, allocs/op and custom metrics per benchmark, plus host
metadata. -benchtime trades precision for wall clock (CI uses 100ms).
Progress goes to stderr, the JSON document to -out (or stdout).

With -baseline, a benchstat-style sec/op delta table against the previous
document is printed to stderr, and -gate N fails the run when the
geometric-mean regression exceeds N%%. The geomean covers only the common
rows whose baseline ns/op is at least %v; faster rows are printed but not
gated, and a comparison in which no common row reaches the floor fails.
CI gates head against a merge-base document measured on the same runner.

Flags:
`, perf.SchemaVersion, perf.GateFloor)
		fs.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nBenchmarks:\n")
		listBenchmarks(os.Stderr)
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "cqla: unexpected arguments: %q\n\n", fs.Args())
		fs.Usage()
		os.Exit(2)
	}
	if *list {
		listBenchmarks(os.Stdout)
		return
	}
	if *gate != 0 && *baseline == "" {
		log.Fatal("cqla: -gate requires -baseline")
	}
	if *gate < 0 {
		// A negative threshold would silently disable enforcement below;
		// reject it so a sign typo cannot masquerade as an active gate.
		log.Fatalf("cqla: -gate %g must be >= 0", *gate)
	}
	var base *perf.Report
	if *baseline != "" {
		// Load before the measurement campaign: a bad baseline path should
		// fail in milliseconds, not after the suite ran.
		var err error
		if base, err = perf.LoadReport(*baseline); err != nil {
			log.Fatalf("cqla: %v", err)
		}
	}
	opt := perf.Options{
		BenchTime: *benchtime,
		Progress: func(done, total int, r perf.Result) {
			fmt.Fprintf(os.Stderr, "cqla: bench %d/%d %-30s %12.0f ns/op %8d allocs/op\n",
				done, total, r.Name, r.NsPerOp, r.AllocsPerOp)
		},
	}
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			log.Fatalf("cqla: bad -filter: %v", err)
		}
		opt.Filter = re
	}
	rep, err := perf.Run(opt)
	if err != nil {
		log.Fatalf("cqla: %v", err)
	}
	if *out == "" || *out == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Fatalf("cqla: write report: %v", err)
		}
	} else {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("cqla: %v", err)
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			// Leave no truncated document behind: a half-written BENCH.json
			// at the target path reads as a valid-looking artifact to CI.
			os.Remove(*out)
			log.Fatalf("cqla: write report %s: %v", *out, werr)
		}
	}
	if base == nil {
		return
	}
	cmp := perf.Compare(base, rep)
	fmt.Fprintf(os.Stderr, "\ncqla: delta vs %s\n", *baseline)
	if err := cmp.WriteText(os.Stderr); err != nil {
		log.Fatalf("cqla: %v", err)
	}
	if len(cmp.Deltas) == 0 {
		// A disjoint benchmark set cannot be gated; fail loudly rather
		// than report a vacuous pass.
		log.Fatalf("cqla: baseline %s shares no benchmarks with this build", *baseline)
	}
	if *gate > 0 {
		if err := cmp.Gate(*gate); err != nil {
			log.Fatalf("cqla: %v", err)
		}
	}
}

// circuitExperiment loads a text-format circuit file and wraps it in the
// block-budget sweep CircuitExperiment defines; the workload is named after
// the file.
func circuitExperiment(path string) (*explore.Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c, perr := circuit.Parse(f)
	if cerr := f.Close(); perr == nil {
		perr = cerr
	}
	if perr != nil {
		return nil, fmt.Errorf("%s: %w", path, perr)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return explore.CircuitExperiment(name, c)
}

// listBenchmarks prints the perf registry, so newly registered benchmarks
// appear in usage output automatically.
func listBenchmarks(w io.Writer) {
	for _, bm := range perf.Benchmarks() {
		fmt.Fprintf(w, "  %-30s %s\n", bm.Name, bm.Doc)
	}
}

// emitSweep runs one registered experiment through the exploration engine
// and writes it to stdout in the requested format. A non-empty trace path
// records every evaluation stage as Chrome trace_event JSON.
func emitSweep(exp *explore.Experiment, p phys.Params, format, engine, estimator string, parallel int, seed int64, progress bool, trace string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var tracer *obs.Tracer
	if trace != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	opts := explore.Options{Phys: p, Parallel: parallel, Seed: seed, Engine: engine}
	if progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcqla: %s %d/%d points", exp.Name, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	pts, err := explore.Run(ctx, exp, opts)
	if err != nil {
		if progress {
			fmt.Fprintln(os.Stderr) // terminate the \r-rewritten progress line
		}
		log.Fatalf("cqla: sweep %s: %v", exp.Name, err)
	}
	if tracer != nil {
		if err := writeTrace(trace, tracer); err != nil {
			log.Fatalf("cqla: %v", err)
		}
		fmt.Fprintf(os.Stderr, "cqla: wrote %d spans to %s\n", tracer.Len(), trace)
	}
	r := &explore.Report{Experiment: exp, Phys: p.Name, Seed: seed, Engine: engine, Estimator: estimator, Points: pts}
	if err := r.Emit(os.Stdout, format); err != nil {
		log.Fatalf("cqla: emit %s: %v", exp.Name, err)
	}
}

// writeTrace dumps the recorded spans as Chrome trace_event JSON.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tracer.WriteChromeTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write trace %s: %w", path, werr)
	}
	return nil
}

// validFormat rejects unknown -format values before the sweep runs,
// rather than after minutes of computation at emission time.
func validFormat(format string) bool {
	for _, f := range explore.Formats() {
		if f == format {
			return true
		}
	}
	return false
}

// listSweeps prints the registry listing, so newly registered experiments
// appear in usage output automatically.
func listSweeps(w io.Writer) {
	for _, e := range explore.Experiments() {
		fmt.Fprintf(w, "  %-14s %s (%d points)\n", e.Name, e.Title, e.Size())
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: cqla [-current] <experiment>
       cqla sweep <name> [-format text|json|csv] [-engine analytic|des] [-parallel N] [-seed S] [-trace out.json]
       cqla sweep -circuit file.qc [same flags]
       cqla serve [-addr :8400] [-pprof] [-log-level info] [-log-format text|json]
       cqla bench [-filter re] [-out BENCH.json] [-benchtime d] [-baseline old.json [-gate pct]]

Hand-laid artifacts:
  table1     physical operation parameters (Table 1)
  fig2       parallelism profile of the 64-qubit adder (Figure 2)
  floorplan  ASCII floorplan of the 256-bit Bacon-Shor CQLA (Figure 3b)
  overlap    discrete-event check of the communication-overlap claim
  all        everything: the artifacts above plus every registered sweep

Registered sweeps (run directly for a text table, or through
`+"`cqla sweep <name>`"+` for json/csv output, -engine, -parallel and
-seed; `+"`cqla serve`"+` exposes the same registry over HTTP):
`)
	listSweeps(os.Stderr)
}

func table1(p phys.Params) {
	fmt.Printf("Physical parameters (%s)\n", p.Name)
	fmt.Printf("%-14s %-12s %s\n", "Operation", "Time", "Failure rate")
	for _, op := range phys.Ops() {
		o := p.Op(op)
		fmt.Printf("%-14s %-12v %.3g\n", op, o.Time, o.FailureRate)
	}
	fmt.Printf("%-14s %-12v\n", "memory time", p.MemoryTime)
	fmt.Printf("%-14s %g µm (%d electrodes -> %.0f µm regions)\n",
		"trap size", p.TrapSizeMicron, p.ElectrodesPerRegion, p.RegionPitchMicron())
	fmt.Printf("%-14s %v\n", "clock cycle", p.CycleTime)
}

func fig2(phys.Params) {
	f := cqla.Fig2(64, 15)
	fmt.Printf("64-qubit adder: unlimited %d slots, 15 blocks %d slots (%.2fx)\n",
		f.UnlimitedSlots, f.LimitedSlots, float64(f.LimitedSlots)/float64(f.UnlimitedSlots))
	fmt.Println("slot  unlimited  15-blocks")
	step := len(f.UnlimitedProfile) / 24
	if step < 1 {
		step = 1
	}
	for t := 0; t < f.LimitedSlots; t += step {
		u, l := 0, 0
		if t < len(f.UnlimitedProfile) {
			u = f.UnlimitedProfile[t]
		}
		if t < len(f.LimitedProfile) {
			l = f.LimitedProfile[t]
		}
		fmt.Printf("%-5d %-10s %-10s\n", t, bar(u), bar(l))
	}
}

func bar(n int) string {
	if n > 60 {
		n = 60
	}
	return strings.Repeat("#", n)
}

func floorplan(p phys.Params) {
	f, err := layout.Build(layout.Config{
		Code:          ecc.BaconShor(),
		Params:        p,
		InputBits:     256,
		ComputeBlocks: 36,
		Hierarchy:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(f.ASCII(72))
}

// overlap checks the communication-overlap claim through the unified
// evaluation API: the same 64-bit adder workload runs on the des engine at
// increasing channel counts.
func overlap(p phys.Params) {
	ad := gen.CarryLookahead(64)
	fmt.Println("discrete-event execution of the 64-bit adder (Bacon-Shor L2, 9 blocks):")
	fmt.Printf("%-10s %-12s %-12s %-10s %-10s\n", "channels", "makespan", "stall", "hidden", "chan-util")
	computeOnly := 0.0
	for _, ch := range []int{1, 2, 4, 8, 12} {
		m, err := arch.New(
			arch.WithCodeName("bacon-shor"),
			arch.WithParams(p),
			arch.WithBlocks(9),
			arch.WithSimChannels(ch),
			arch.WithSimResidency(2*ad.Circuit.NumQubits()),
		)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := m.Engine(arch.EngineDES)
		if err != nil {
			log.Fatal(err)
		}
		cw, err := m.Compile(arch.NewAdder(64, false))
		if err != nil {
			log.Fatal(err)
		}
		res, err := arch.EvaluateCompiled(context.Background(), eng, cw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %-12.1f %-12.1f %-10.2f %-10.2f\n",
			ch, res.MustMetric("makespan_s"), res.MustMetric("stall_s"),
			res.MustMetric("communication_hidden"), res.MustMetric("channel_utilization"))
		computeOnly = res.MustMetric("compute_only_s")
	}
	fmt.Printf("compute-only lower bound: %.1f s\n", computeOnly)
}
