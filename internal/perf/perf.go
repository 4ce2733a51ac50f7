// Package perf is the repository's machine-readable performance harness
// and the only definition of its hot-path benchmarks: no `go test`
// benchmark duplicates a registered row. It keeps a registry of named
// micro- and macro-benchmarks over the hot paths (Monte Carlo error
// injection, the discrete-event simulator, the compiled-workload
// pipeline, the cache simulator, the exploration engine), runs them
// through a native calibrated measurement loop (see B), and renders the
// measurements as a versioned BENCH.json document: ns/op, B/op, allocs/op
// and any custom b.ReportMetric series per benchmark, plus enough host
// metadata to interpret a number a month later. Owning the loop (instead
// of wrapping testing.Benchmark) gives `cqla bench` a -benchtime knob, so
// CI can trade precision for wall-clock, and real error propagation from
// failing bodies. Compare reads a previous document back and prints a
// benchstat-style delta table (`cqla bench -baseline old/BENCH.json`);
// Comparison.Gate is the CI regression gate over the rows at or above
// GateFloor. A row whose body allocates nothing names the functions it
// certifies (Benchmark.NoAlloc), and the package tests hold that claim to
// a measurement of every row.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// SchemaVersion identifies the BENCH.json layout. Bump it on any change
// that could break a consumer: renamed fields, changed units, removed
// sections. Additive fields do not require a bump.
const SchemaVersion = 1

// Benchmark is one registered measurement.
type Benchmark struct {
	// Name identifies the benchmark in reports, filters and the CI gate
	// (e.g. "DES64BitAdder").
	Name string
	// Doc is a one-line description carried into the report.
	Doc string
	// F is the benchmark body; B mirrors the testing.B API surface the
	// suite needs (N, timers, ReportMetric, Fatal).
	F func(b *B)
	// NoAlloc names the functions whose zero allocations this row
	// certifies, in the lint symbol grammar: "import/path.Func",
	// "import/path.(*Type).Method" or "import/path.(Type).Method". A row
	// that declares them must measure 0 allocs/op and a row that measures
	// 0 must declare them (TestSuiteBodiesRun), and every named function
	// must carry `//cqla:noalloc` (internal/lint's TestRepositoryClean).
	NoAlloc []string
}

var (
	regMu    sync.Mutex
	registry []Benchmark
	regNames = map[string]bool{}
)

// Register adds a benchmark to the global registry. Names must be unique,
// non-empty and free of whitespace (they become filter targets and JSON
// keys).
func Register(b Benchmark) error {
	if b.Name == "" || strings.ContainsAny(b.Name, " \t\n") {
		return fmt.Errorf("perf: invalid benchmark name %q", b.Name)
	}
	if b.F == nil {
		return fmt.Errorf("perf: benchmark %q has no body", b.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if regNames[b.Name] {
		return fmt.Errorf("perf: benchmark %q registered twice", b.Name)
	}
	regNames[b.Name] = true
	registry = append(registry, b)
	return nil
}

// mustRegister is Register for static suite tables.
func mustRegister(b Benchmark) {
	if err := Register(b); err != nil {
		panic(err)
	}
}

// Benchmarks returns the registered benchmarks sorted by name, so every
// run (and every BENCH.json) lists them in the same order.
func Benchmarks() []Benchmark {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]Benchmark(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Result is one benchmark's measurement in the report.
type Result struct {
	Name        string  `json:"name"`
	Doc         string  `json:"doc,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics carries the benchmark's b.ReportMetric series (unit -> value),
	// e.g. domain figures of merit alongside the timing.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH.json document.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Host          string `json:"host,omitempty"`
	// Build identity: which bits produced these numbers. Module is the
	// main module path, ModVersion its version (or "(devel)"), VCSRevision
	// and VCSTime the stamped commit, VCSModified whether the working tree
	// was dirty — a dirty-tree BENCH.json is not a comparable baseline.
	Module      string    `json:"module,omitempty"`
	ModVersion  string    `json:"mod_version,omitempty"`
	VCSRevision string    `json:"vcs_revision,omitempty"`
	VCSTime     string    `json:"vcs_time,omitempty"`
	VCSModified bool      `json:"vcs_modified,omitempty"`
	StartedAt   time.Time `json:"started_at"`
	WallTimeS   float64   `json:"wall_time_s"`
	Benchmarks  []Result  `json:"benchmarks"`
}

// DefaultBenchTime is the per-benchmark time budget when Options leaves
// BenchTime zero — the same default as `go test -bench`.
const DefaultBenchTime = time.Second

// Options configures one harness run.
type Options struct {
	// Filter selects benchmarks by name; nil runs everything.
	Filter *regexp.Regexp
	// BenchTime is the per-benchmark measurement budget; zero selects
	// DefaultBenchTime. Shorter budgets trade precision for wall-clock —
	// CI's BENCH.json generation runs at 100ms.
	BenchTime time.Duration
	// Progress, if non-nil, is called after each benchmark completes.
	Progress func(done, total int, r Result)
}

// Run measures every registered benchmark matching the filter and returns
// the report. It errors when the filter matches nothing, so a typo in
// `cqla bench -filter` fails loudly instead of emitting an empty document,
// and when any benchmark body calls Fatal.
func Run(opt Options) (*Report, error) {
	return RunBenchmarks(Benchmarks(), opt)
}

// RunBenchmarks is Run over an explicit benchmark set.
func RunBenchmarks(bms []Benchmark, opt Options) (*Report, error) {
	var selected []Benchmark
	for _, bm := range bms {
		if opt.Filter == nil || opt.Filter.MatchString(bm.Name) {
			selected = append(selected, bm)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("perf: no benchmark matches (have %s)", strings.Join(names(bms), ", "))
	}
	benchtime := opt.BenchTime
	if benchtime <= 0 {
		benchtime = DefaultBenchTime
	}
	rep := newReport()
	start := time.Now()
	for i, bm := range selected {
		r, err := measure(bm, benchtime)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
		if opt.Progress != nil {
			opt.Progress(i+1, len(selected), r)
		}
	}
	rep.WallTimeS = time.Since(start).Seconds()
	return rep, nil
}

func newReport() *Report {
	host, _ := os.Hostname()
	bi := obs.Build()
	return &Report{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Host:          host,
		Module:        bi.Module,
		ModVersion:    bi.Version,
		VCSRevision:   bi.Revision,
		VCSTime:       bi.Time,
		VCSModified:   bi.Modified,
		StartedAt:     time.Now().UTC(),
	}
}

func names(bms []Benchmark) []string {
	out := make([]string, len(bms))
	for i, bm := range bms {
		out[i] = bm.Name
	}
	return out
}

// WriteJSON renders the report as indented JSON. Benchmarks are already
// name-sorted and encoding/json sorts the metric maps, so the document is
// diff-stable run to run.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
