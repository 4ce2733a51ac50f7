// Command benchmark is the repository's end-to-end benchmark. It drives
// the reproduction from outside, through the public functions of its
// layers, on four workloads:
//
//   - paper-analytic: every registered sweep on the analytic engine, what
//     `cqla all` regenerates;
//   - des-sweeps: the machine-backed sweeps on the discrete-event engine;
//   - mc-fast: the montecarlo sweep on the bit-sliced and rare-event
//     estimators;
//   - serve-mix: a closed loop of clients against the `cqla serve` API.
//
// Each workload runs in fresh child processes of this binary, so set-up
// time and peak memory are its own. A run checks every document it
// produces against testdata/digests.json and prints its metrics, one per
// line with units, then one JSON result line. See README.md.
//
// Usage:
//
//	benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// workloadNames lists the workloads in the order a run of all of them
// takes.
var workloadNames = []string{"paper-analytic", "des-sweeps", "mc-fast", "serve-mix"}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. An operation is one pass
// of a batch workload, or one request (a coalesce pair counts once) of
// serve-mix. Operation times are in refs, multiples of a reference
// computation timed beside them (see refSampler); set-up time is in
// seconds at the nominal host speed (see refNominal). serve-mix reports
// each operation metric as the geometric mean over its request classes,
// so that no guessed traffic share weights it. The median and tail
// operation times are printed too, but not reported as metrics: on a
// shared 2-vCPU host their run-to-run spread was wider than any bound
// that could catch a regression (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_mean_ref", "ref"},
	{"cpu_per_op_ref", "ref"},
}

// perLayer are the metrics of a traced run (-trace 1). A layer a workload
// does not exercise reads 0.
var perLayer = append(layerDefs(), []metricDef{
	{"trace.overhead_frac", "ratio"},
	{"explore.points", "count"},
	{"evalcache.machine_hit_ratio", "ratio"},
	{"evalcache.plan_hit_ratio", "ratio"},
	{"evalcache.compiled_hit_ratio", "ratio"},
	{"ecc.trials", "count"},
	{"ecc.trials_per_s", "1/s"},
	{"ecc.rare_budget_used_frac", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"http.hit_ms_p50", "ms"},
	{"http.miss_ms_p50", "ms"},
	{"http.coalesce_ms_p50", "ms"},
	{"http.circuit-hit_ms_p50", "ms"},
	{"http.circuit-miss_ms_p50", "ms"},
	{"jobs.queue_wait_s_mean", "s"},
	{"jobs.run_s_mean", "s"},
	{"jobs.result_cache_hit_ratio", "ratio"},
	{"jobs.coalesced", "count"},
	{"http.server_s_mean", "s"},
	{"circuit.parse_ms", "ms"},
	{"arch.plan_circuit_ms", "ms"},
	{"host.ref_ms", "ms"},
	{"peak_rss_mb", "MB"}, // VmHWM of the traced process; too noisy to gate (see README.md)
}...)

func layerDefs() []metricDef {
	defs := make([]metricDef, len(layerRows))
	for i, r := range layerRows {
		defs[i] = metricDef{r, "worker-s"}
	}
	return defs
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 3

// setupAllowance is how long one workload process may take beyond its
// share of the window: set-up, the pass or round that ends after the
// window, and start and exit. One workload, child processes included, is
// bounded by its window plus this much per process.
const setupAllowance = 40 * time.Second

// traceDir is where traced runs write their Chrome trace and layers
// table, relative to the directory the benchmark runs in.
const traceDir = ".bench_build/trace"

type config struct {
	workload string
	seed     int64
	window   time.Duration
	maxOps   int // > 0: stop after this many operations instead of the window
	trace    bool
	traceDir string // "" writes no trace files
}

// outcome is what one workload process measured: the samples of an
// untraced window by operation class, which the parent pools across
// processes, or the per-layer metrics of a traced one.
type outcome struct {
	WarmEnd   int64                `json:"warm_end_unix_ns"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Classes   map[string]*classOut `json:"classes,omitempty"`
	Refs      []float64            `json:"refs"`             // reference samples, seconds
	Layers    map[string]float64   `json:"layers,omitempty"` // the per-layer metrics of a traced window
}

func main() {
	workload := flag.String("workload", "", "workload: paper-analytic, des-sweeps, mc-fast or serve-mix (default: all, in turn)")
	seed := flag.Int64("seed", 1, "workload seed: the explore seed of every sweep and the seed of the serve-mix request order")
	seconds := flag.Float64("seconds", 25, "length of the timed window, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	child := flag.Bool("child", false, "internal: run as one workload process")
	flag.Parse()
	if flag.NArg() != 0 || !(*seconds > 0) || *trace != 0 && *trace != 1 {
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v)\n", *workload, workloadNames)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if *child {
		cfg.workload = names[0]
		if cfg.trace {
			cfg.traceDir = traceDir
		}
		if err := childMain(ctx, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
			os.Exit(1)
		}
		return
	}
	code := 0
	for _, name := range names {
		cfg.workload = name
		ok, err := parentMain(ctx, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !ok {
			code = 1
		}
	}
	os.Exit(code)
}

// childMain runs one workload process and writes its outcome as JSON.
func childMain(ctx context.Context, cfg config) error {
	out, err := runWorkload(ctx, cfg, os.Stderr)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// parentMain runs one workload in child processes and prints the result.
// An untraced run splits its window over setupRuns processes, each set up
// afresh: set-up time is the median over the processes, and the
// operation samples are pooled, so that one process's luck with memory
// layout or a noisy neighbour weighs a third. A traced run is one
// process. parentMain reports whether every output check passed.
func parentMain(ctx context.Context, cfg config, w io.Writer) (bool, error) {
	procs := setupRuns
	if cfg.trace {
		procs = 1
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.window+time.Duration(procs)*setupAllowance)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	child := cfg
	child.window = cfg.window / time.Duration(procs)
	var outs []*outcome
	var setups []float64
	for i := 0; i < procs; i++ {
		out, setupS, err := spawn(ctx, exe, child)
		if err != nil {
			return false, err
		}
		outs = append(outs, out)
		setups = append(setups, setupS)
	}
	m, attempted, failed := combine(cfg, outs, setups, os.Stderr)
	return failed == 0, report(w, cfg, attempted, failed, m)
}

// combine pools the processes of one run into the run's metrics and its
// attempted and failed operation counts. Set-up time is scaled to the
// nominal host speed (see refNominal) per process, with that process's
// median reference sample. Each operation metric is the geometric mean over
// the operation classes of the class's value: a batch workload has one
// class, its passes; serve-mix has one per request class, which therefore
// all weigh the same, however long their operations take and however
// many of them the window holds.
func combine(cfg config, outs []*outcome, setups []float64, logw io.Writer) (map[string]float64, int, int) {
	attempted, failed := 0, 0
	var refs, scaled []float64
	classes := make(map[string]*classOut)
	for i, o := range outs {
		attempted += o.Attempted
		failed += o.Failed
		refs = append(refs, o.Refs...)
		scaled = append(scaled, setups[i]*ratio(refNominal, median(o.Refs)))
		for name, c := range o.Classes {
			p := classes[name]
			if p == nil {
				p = &classOut{}
				classes[name] = p
			}
			p.LatS = append(p.LatS, c.LatS...)
			p.Norm = append(p.Norm, c.Norm...)
			p.CPURef += c.CPURef
		}
	}
	if cfg.trace {
		return outs[0].Layers, attempted, failed
	}
	fmt.Fprintf(logw, "benchmark: %s: %d processes; ref %.4g ms; set-up wall %.4g s\n",
		cfg.workload, len(outs), 1000*median(refs), median(setups))
	var opMeans, cpuPerOp []float64
	for _, name := range slices.Sorted(maps.Keys(classes)) {
		c := classes[name]
		lat, norm := c.LatS, c.Norm
		cpu := ratio(c.CPURef, float64(len(norm)))
		tail := tailLevel(len(lat))
		fmt.Fprintf(logw, "benchmark: %s: %s: %d ops; wall mean %.4g ms, p25 %.4g, p50 %.4g, p75 %.4g, p%g %.4g ms; in refs mean %.4g, p50 %.4g, p%g %.4g; cpu/op %.4g refs\n",
			cfg.workload, name, len(lat), 1000*mean(lat), 1000*quantile(lat, 0.25), 1000*median(lat),
			1000*quantile(lat, 0.75), 100*tail, 1000*quantile(lat, tail), mean(norm), median(norm), 100*tail, quantile(norm, tail), cpu)
		opMeans = append(opMeans, mean(norm))
		cpuPerOp = append(cpuPerOp, cpu)
	}
	return map[string]float64{
		"setup_s":        median(scaled),
		"op_mean_ref":    geomean(opMeans),
		"cpu_per_op_ref": geomean(cpuPerOp),
	}, attempted, failed
}

// spawn runs one workload process and returns its outcome and set-up
// time: from just before the process starts to the end of its warm-up.
func spawn(ctx context.Context, exe string, cfg config) (*outcome, float64, error) {
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'g', -1, 64),
		"-trace", strconv.Itoa(boolInt(cfg.trace)))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("workload process: %w", err)
	}
	var out outcome
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &out); err != nil {
		return nil, 0, fmt.Errorf("workload process output: %w", err)
	}
	return &out, float64(out.WarmEnd-start.UnixNano()) / 1e9, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// report prints the host, every metric of the run's kind by name with its
// unit, and last the JSON result line.
func report(w io.Writer, cfg config, attempted, failed int, m map[string]float64) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	bw := bufio.NewWriter(w)
	h, err := json.Marshal(host())
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "host %s\n", h)
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(bw, "%s %s %g %s\n", cfg.workload, d.name, v, d.unit)
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", res)
	return bw.Flush()
}

// runWorkload sets one workload up and measures it for cfg.window. The
// reference sampler runs from the start of set-up to the end of the
// window. Diagnostics go to logw.
func runWorkload(ctx context.Context, cfg config, logw io.Writer) (*outcome, error) {
	table, err := parseDigests(digestsJSON)
	if err != nil {
		return nil, err
	}
	ref := startRefSampler()
	var out *outcome
	var segs []segment
	if cfg.workload == "serve-mix" {
		rig := newServeRig(table, cfg.seed)
		out, segs, err = measureServe(ctx, cfg, rig, logw)
		if cerr := rig.close(); err == nil && cerr != nil {
			err = fmt.Errorf("shut the server down: %w", cerr)
		}
	} else {
		out, segs, err = measureBatch(ctx, cfg, table, logw)
	}
	ref.Stop()
	if err != nil {
		return nil, err
	}
	out.Classes, out.Refs = classify(segs, ref), ref.cpu
	if out.Layers != nil {
		out.Layers["host.ref_ms"] = 1000 * median(out.Refs)
		if out.Layers["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layerMetrics returns the per-layer metric map with every metric at 0,
// the reading of a layer the workload does not exercise.
func layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

func measureBatch(ctx context.Context, cfg config, table digestTable, logw io.Writer) (*outcome, []segment, error) {
	tasks, err := batchTasks(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	out := &outcome{Attempted: 1}
	docs, err := runPass(ctx, tasks, cfg.seed, workers, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if err := verifyPass(ctx, tasks, docs, cfg.seed, workers, table); err != nil {
		out.Failed++
		fmt.Fprintf(logw, "benchmark: %s: output check failed: %v\n", cfg.workload, err)
	}
	out.WarmEnd = time.Now().UnixNano()
	res, err := runBatch(ctx, tasks, cfg.seed, workers, docs, cfg.window, cfg.maxOps, cfg.trace)
	if err != nil {
		return nil, nil, err
	}
	out.Attempted += res.attempted
	out.Failed += res.failed
	if res.firstErr != nil {
		fmt.Fprintf(logw, "benchmark: %s: %d passes failed, first: %v\n", cfg.workload, res.failed, res.firstErr)
	}
	if !cfg.trace {
		return out, res.segs, nil
	}
	var walls []float64
	for _, seg := range res.segs {
		walls = append(walls, seg.end.Sub(seg.start).Seconds())
	}
	m := layerMetrics()
	res.layers.metrics(m)
	m["trace.overhead_frac"] = ratio(median(res.tracedWalls), median(walls)) - 1
	res.rt.perOp(res.untraced, m)
	out.Layers = m
	if cfg.traceDir != "" && res.layers.passes > 0 {
		var table bytes.Buffer
		res.layers.writeTable(&table, cfg.workload)
		logw.Write(table.Bytes())
		if err := writeTraceFiles(cfg, res.layers.chrome, table.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	return out, res.segs, nil
}

func measureServe(ctx context.Context, cfg config, rig *serveRig, logw io.Writer) (*outcome, []segment, error) {
	errs := rig.setup(ctx)
	out := &outcome{Attempted: len(rig.warm) + len(rig.bodies), Failed: len(errs)}
	if len(errs) > 0 {
		fmt.Fprintf(logw, "benchmark: %s: output check failed: %v\n", cfg.workload, errors.Join(errs...))
	}
	out.WarmEnd = time.Now().UnixNano()
	clients := runtime.GOMAXPROCS(0)
	var before map[string]float64
	var err error
	if cfg.trace {
		if before, err = rig.scrape(ctx); err != nil {
			return nil, nil, err
		}
	}
	r0 := readRuntime()
	res, err := rig.load(ctx, clients, cfg.window, cfg.maxOps)
	if err != nil {
		return nil, nil, err
	}
	rt := readRuntime().minus(r0)
	out.Attempted += res.attempted
	out.Failed += res.failed
	if res.firstErr != nil {
		fmt.Fprintf(logw, "benchmark: %s: %d requests failed, first: %v\n", cfg.workload, res.failed, res.firstErr)
	}
	if !cfg.trace {
		return out, res.segs, nil
	}
	after, err := rig.scrape(ctx)
	if err != nil {
		return nil, nil, err
	}
	m := layerMetrics()
	serveLayers(res, before, after, m)
	rt.perOp(res.attempted, m)
	if m["circuit.parse_ms"], m["arch.plan_circuit_ms"], err = circuitCosts(rig.bodies); err != nil {
		return nil, nil, err
	}
	out.Layers = m
	if cfg.traceDir != "" {
		var table bytes.Buffer
		fmt.Fprintf(&table, "layers %s: %d requests from %d clients\n", cfg.workload, res.attempted, clients)
		for _, d := range perLayer {
			if v := m[d.name]; v != 0 {
				fmt.Fprintf(&table, "  %-28s %12.6g %s\n", d.name, v, d.unit)
			}
		}
		logw.Write(table.Bytes())
		if err := writeTraceFiles(cfg, nil, table.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	return out, res.segs, nil
}

// writeTraceFiles writes a traced run's layers table and, for a batch
// workload, the Chrome trace of its last traced pass.
func writeTraceFiles(cfg config, chrome, table []byte) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.traceDir, cfg.workload)
	if chrome != nil {
		if err := os.WriteFile(base+".trace.json", chrome, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".layers.txt", table, 0o644)
}
