package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/phys"
)

// Server is the registry-driven HTTP API behind `cqla serve`: a JSON view
// of every registered sweep, a run endpoint, and the job API over the
// Manager in jobs.go.
//
//	GET  /v1/sweeps               list every registered experiment
//	POST /v1/sweeps/{name}:run    run one sweep (sync, or async via body)
//	GET  /v1/jobs                 list retained jobs, newest first
//	GET  /v1/jobs/{id}            job state, progress, report when done
//	GET  /v1/jobs/{id}/report     raw report document of a done job
//
// The run request body is optional JSON:
//
//	{"phys": "projected"|"current", "seed": 1, "parallel": 0,
//	 "engine": "analytic"|"des", "async": false, "circuit": ""}
//
// Every field defaults like the CLI flags. The circuit field carries a
// custom circuit in the text format of docs/workload-format.md and is
// valid only on POST /v1/sweeps/circuit:run, which evaluates it across
// block budgets exactly like `cqla sweep -circuit file.qc`. Runs are
// jobs: identical requests — same (sweep, phys, seed, engine, circuit)
// at any parallelism — coalesce onto one evaluation and repeat ones are
// served from the result cache (the X-Cache header says which). Both are
// decided from the content key before the circuit is parsed, so a repeated
// circuit costs no parse or plan, and a circuit that fails to parse is a
// 400 on every attempt, never cached. A synchronous run streams the
// finished document; an async one returns 202 with a job id to poll.
// Jobs run detached from the request context, so a disconnecting client
// no longer wastes the computation: the result still lands in the cache.
//
// With WithObservability the server also exposes GET /metrics (Prometheus
// text format backed by the same registry the job manager and sweep
// runner write to), GET /v1/version reports the binary's build identity,
// and WithPprof mounts net/http/pprof under /debug/pprof/. Every request
// is access-logged through the WithLogger logger and counted in
// cqla_http_requests_total / cqla_http_request_seconds, labeled by route
// pattern — never by raw path, so cardinality stays bounded.
type Server struct {
	mux  *http.ServeMux
	jobs *Manager
	log  *slog.Logger

	httpReqs *obs.CounterVec   // nil when observability is off
	httpDur  *obs.HistogramVec // nil when observability is off
}

// NewServer returns the HTTP API with a fresh job manager.
func NewServer(opts ...ManagerOption) *Server {
	cfg := defaultManagerConfig()
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{mux: http.NewServeMux(), jobs: newManager(cfg), log: cfg.log}
	s.mux.HandleFunc("GET /v1/sweeps", handleListSweeps)
	s.mux.HandleFunc("POST /v1/sweeps/{op}", s.handleRunSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleJobReport)
	s.mux.HandleFunc("GET /v1/version", handleVersion)
	s.mux.Handle("GET /metrics", cfg.obs.MetricsHandler())
	if cfg.pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if cfg.obs != nil {
		s.httpReqs = cfg.obs.CounterVec("cqla_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code")
		s.httpDur = cfg.obs.HistogramVec("cqla_http_request_seconds",
			"HTTP request latency by route pattern.", nil, "route")
	}
	return s
}

// statusWriter records the response status for access logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	start := obs.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := obs.Since(start)
	if sw.status == 0 {
		sw.status = http.StatusOK // handler wrote nothing: implicit 200
	}
	// r.Pattern is the matched mux route ("POST /v1/sweeps/{op}"); an
	// unmatched request keeps the label space finite under path scanning.
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	}
	if s.httpReqs != nil {
		s.httpReqs.With(route, strconv.Itoa(sw.status)).Inc()
		s.httpDur.With(route).Observe(elapsed.Seconds())
	}
	s.log.Info("http request",
		"method", r.Method, "path", r.URL.Path, "route", route,
		"status", sw.status, "dur_ms", float64(elapsed.Microseconds())/1000,
		"remote", r.RemoteAddr)
}

// handleVersion reports the binary's build identity: module version, Go
// toolchain, and the VCS revision stamped by `go build`.
func handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		SchemaVersion int `json:"schema_version"`
		obs.BuildInfo
	}{SchemaVersion: arch.SchemaVersion, BuildInfo: obs.Build()})
}

// Shutdown stops accepting jobs and drains the in-flight ones; see
// Manager.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error { return s.jobs.Shutdown(ctx) }

// sweepInfo is one registry entry in the listing response.
type sweepInfo struct {
	Name   string     `json:"name"`
	Title  string     `json:"title"`
	Points int        `json:"points"`
	Axes   []axisInfo `json:"axes"`
}

type axisInfo struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Values []Value `json:"values"`
}

func handleListSweeps(w http.ResponseWriter, r *http.Request) {
	type listing struct {
		SchemaVersion int         `json:"schema_version"`
		Engines       []string    `json:"engines"`
		Sweeps        []sweepInfo `json:"sweeps"`
	}
	out := listing{SchemaVersion: arch.SchemaVersion, Engines: arch.EngineNames()}
	for _, e := range Experiments() {
		info := sweepInfo{Name: e.Name, Title: e.Title, Points: e.Size()}
		for _, a := range e.Axes {
			kind := Int
			if len(a.Values) > 0 {
				kind = a.Values[0].Kind()
			}
			info.Axes = append(info.Axes, axisInfo{Name: a.Name, Kind: kind.String(), Values: a.Values})
		}
		out.Sweeps = append(out.Sweeps, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// runRequest is the optional POST body of a sweep run.
type runRequest struct {
	Phys     string `json:"phys"`
	Seed     int64  `json:"seed"`
	Parallel int    `json:"parallel"`
	Engine   string `json:"engine"`
	// Async makes the endpoint return 202 with a job id immediately
	// instead of streaming the finished document.
	Async bool `json:"async"`
	// Circuit is a custom circuit in the text format, evaluated across
	// block budgets. Valid only on the "circuit" operation; every other
	// sweep's output is fully determined without it.
	Circuit string `json:"circuit"`
}

// circuitSweepName is the reserved operation name for custom-circuit runs:
// POST /v1/sweeps/circuit:run with a non-empty circuit body field. Register
// panics on registry names that would collide (CircuitExperiment is never
// registered), so Lookup can only fail for it.
const circuitSweepName = "circuit"

func (s *Server) handleRunSweep(w http.ResponseWriter, r *http.Request) {
	op := r.PathValue("op")
	name, ok := strings.CutSuffix(op, ":run")
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown operation %q (want {name}:run)", op))
		return
	}
	// The body is decoded before the name resolves: the circuit operation
	// has no registry entry — its experiment is built from the body.
	req := runRequest{Phys: "projected", Seed: 1}
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if !errors.Is(err, io.EOF) { // a missing body means all-defaults
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	} else if _, err := dec.Token(); err != io.EOF {
		// A second JSON value or trailing garbage after the request object
		// is a malformed request, not ignorable padding.
		writeError(w, http.StatusBadRequest, fmt.Errorf("trailing data after request body"))
		return
	}
	// The sweep name and the build function are resolved here; the build
	// runs inside Submit, and only on a cache miss, so a repeated circuit
	// is answered by its content key without being parsed or planned.
	var (
		sweep    string
		build    func() (*Experiment, error)
		badBuild bool
	)
	switch {
	case strings.EqualFold(name, circuitSweepName):
		if req.Circuit == "" {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("the %s operation requires a circuit field (text format, see docs/workload-format.md)", circuitSweepName))
			return
		}
		sweep = circuitSweepName
		build = func() (*Experiment, error) {
			c, err := circuit.ParseString(req.Circuit)
			var exp *Experiment
			if err == nil {
				exp, err = CircuitExperiment("request", c)
			}
			if err != nil {
				badBuild = true
				return nil, fmt.Errorf("bad circuit: %w", err)
			}
			return exp, nil
		}
	case req.Circuit != "":
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("the circuit field is only valid on the %s operation, not %q", circuitSweepName, name))
		return
	default:
		exp, err := Lookup(name) // case-insensitive, matching the CLI
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		sweep = exp.Name
		build = func() (*Experiment, error) { return exp, nil }
	}
	p, err := physByName(req.Phys)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	engine, err := arch.NormalizeEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, hit, err := s.jobs.Submit(JobSpec{
		Sweep:    sweep,
		Phys:     p,
		Seed:     req.Seed,
		Engine:   engine,
		Parallel: req.Parallel,
		Circuit:  req.Circuit,
	}, build)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case badBuild:
			status = http.StatusBadRequest
		case errors.Is(err, ErrShuttingDown):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	if req.Async {
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	doc, err := job.Wait(r.Context())
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			writeError(w, 499, err) // client closed request
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, err) // server shutdown
		default:
			// The registry is open: an evaluator error is a server-side fault.
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.WriteHeader(http.StatusOK)
	// The document is Report.JSON's output: the endpoint serves
	// byte-identical documents to `cqla sweep <name> -format json`.
	w.Write(doc)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.jobs.Jobs()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	view := struct {
		JobStatus
		Report json.RawMessage `json:"report,omitempty"`
	}{JobStatus: j.Status()}
	if view.State == JobDone {
		if doc, err := j.Document(); err == nil {
			view.Report = doc
		}
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobReport serves the finished document verbatim — the same bytes
// the synchronous endpoint and the CLI emitter produce.
func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	st := j.Status()
	switch st.State {
	case JobDone:
		doc, err := j.Document()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(doc)
	case JobFailed:
		writeError(w, http.StatusInternalServerError, errors.New(st.Error))
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", st.ID, st.State))
	}
}

// physByName resolves the request's technology point.
func physByName(name string) (phys.Params, error) {
	switch name {
	case "", "projected":
		return phys.Projected(), nil
	case "current":
		return phys.Current(), nil
	}
	return phys.Params{}, fmt.Errorf("unknown phys %q (have projected, current)", name)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
