package explore

import (
	"bytes"
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
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/arch"
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
// 400 on every attempt, never cached. A circuit's plan is kept in the
// server's plan cache under a digest of its text, so the same circuit at
// a new seed, phys or engine is not parsed or planned again either, and
// reuses the makespans and simulations its plan memoized. A synchronous
// run streams the finished document; an async one returns 202 with a job
// id to poll. Jobs run detached from the request context, so a
// disconnecting client no longer wastes the computation: the result still
// lands in the cache.
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
	cfg := newManagerConfig(opts)
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
	}{SchemaVersion: SchemaVersion, BuildInfo: obs.Build()})
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
	out := listing{SchemaVersion: SchemaVersion, Engines: arch.EngineNames()}
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

// maxRunBody caps a run request body at 1 MiB.
const maxRunBody = 1 << 20

// maxRunPresize caps how much of a body's declared length is allocated
// before its bytes arrive, so a client cannot pin a megabyte per
// connection with a Content-Length it never sends. A larger body grows
// the buffer as it is read.
const maxRunPresize = 64 << 10

// decodeRunRequest reads a run request body to its end and decodes it onto
// the defaults (phys "projected", seed 1). sizeHint is the body's declared
// length, or -1 if unknown; at most maxRunPresize of it is allocated up
// front. It accepts exactly the bodies that
// encoding/json's Decoder, with DisallowUnknownFields and no token after
// the value, accepts into a runRequest, and yields the same request:
//
//   - an empty, whitespace-only or null body means the defaults;
//   - any other body is one object, with nothing but whitespace after it;
//   - keys match the six field names as bytes.EqualFold does, so "ſeed"
//     is seed; an unknown key is an error; the last of duplicate keys wins;
//   - a null value leaves its field as it was;
//   - seed is an int64 and parallel an int, written without a fraction or
//     an exponent;
//   - strings may not hold a control byte; their escapes, \uXXXX surrogate
//     pairs included, are decoded, and invalid UTF-8 and lone surrogates
//     become U+FFFD.
//
// FuzzRunRequestBody holds it to encoding/json. Each string is scanned
// once as it is decoded, and the circuit text is written straight into
// the one string that holds it.
func decodeRunRequest(body io.Reader, sizeHint int64) (runRequest, error) {
	req := runRequest{Phys: "projected", Seed: 1}
	var buf bytes.Buffer
	buf.Grow(int(min(max(sizeHint, 0), maxRunPresize)) + bytes.MinRead)
	if _, err := buf.ReadFrom(body); err != nil {
		return req, err
	}
	d := reqDecoder{b: buf.Bytes()}
	d.space()
	switch {
	case d.i == len(d.b):
		return req, nil
	case d.literal("null"):
	case d.b[d.i] == '{':
		if err := d.object(&req); err != nil {
			return req, err
		}
	default:
		return req, d.errorf("want an object")
	}
	if d.space(); d.i != len(d.b) {
		return req, d.errorf("trailing data after the request object")
	}
	return req, nil
}

// reqDecoder is a cursor over a run request body.
type reqDecoder struct {
	b []byte
	i int
}

func (d *reqDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at byte %d", fmt.Sprintf(format, args...), d.i)
}

// space skips JSON whitespace.
func (d *reqDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// literal consumes lit if the body continues with it.
func (d *reqDecoder) literal(lit string) bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
		return false
	}
	d.i += len(lit)
	return true
}

// object decodes the request object whose '{' is at the cursor.
func (d *reqDecoder) object(req *runRequest) error {
	d.i++
	if d.space(); d.literal("}") {
		return nil
	}
	for {
		if err := d.member(req); err != nil {
			return err
		}
		d.space()
		switch {
		case d.literal(","):
			d.space()
		case d.literal("}"):
			return nil
		default:
			return d.errorf("want , or } after a field")
		}
	}
}

// member decodes one "key": value pair into req.
func (d *reqDecoder) member(req *runRequest) error {
	key, err := d.string()
	if err != nil {
		return err
	}
	if d.space(); !d.literal(":") {
		return d.errorf("want : after field %q", key)
	}
	d.space()
	field := ""
	for _, f := range [...]string{"phys", "seed", "parallel", "engine", "async", "circuit"} {
		if strings.EqualFold(key, f) {
			field = f
			break
		}
	}
	if field == "" {
		return d.errorf("unknown field %q", key)
	}
	if d.literal("null") {
		return nil
	}
	switch field {
	case "phys":
		req.Phys, err = d.string()
	case "engine":
		req.Engine, err = d.string()
	case "circuit":
		req.Circuit, err = d.string()
	case "seed":
		req.Seed, err = d.int(64)
	case "parallel":
		var n int64
		n, err = d.int(strconv.IntSize)
		req.Parallel = int(n)
	case "async":
		switch {
		case d.literal("true"):
			req.Async = true
		case d.literal("false"):
			req.Async = false
		default:
			err = d.errorf("field async wants true or false")
		}
	}
	return err
}

// int decodes an integer literal that fits in bits.
func (d *reqDecoder) int(bits int) (int64, error) {
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	digits := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	if d.i == digits || d.b[digits] == '0' && d.i > digits+1 {
		return 0, d.errorf("want an integer")
	}
	if d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		return 0, d.errorf("want an integer, not a fraction or exponent")
	}
	n, err := strconv.ParseInt(string(d.b[start:d.i]), 10, bits)
	if err != nil {
		return 0, d.errorf("integer %s out of range", d.b[start:d.i])
	}
	return n, nil
}

// string decodes the string literal at the cursor into one new string,
// sized to the literal once its closing quote is found, in the one scan
// that also validates it.
func (d *reqDecoder) string() (string, error) {
	if d.i == len(d.b) || d.b[d.i] != '"' {
		return "", d.errorf("want a string")
	}
	start := d.i + 1
	end := closingQuote(d.b, start)
	if end < 0 {
		d.i = len(d.b)
		return "", d.errorf("unterminated string")
	}
	b := d.b[:end]
	var sb strings.Builder
	sb.Grow(end - start)
	run := start // text since the last escape, not yet written
	for i := start; i < len(b); {
		if i += plainRun(b[i:]); i == len(b) {
			break
		}
		c := b[i]
		if c >= utf8.RuneSelf {
			if r, n := utf8.DecodeRune(b[i:]); r != utf8.RuneError || n > 1 {
				i += n
				continue
			}
		}
		sb.Write(b[run:i])
		switch {
		case c < ' ':
			d.i = i
			return "", d.errorf("control byte %#x in a string", c)
		case c == '\\':
			n, r := unescape(b[i:])
			if n == 0 {
				d.i = i
				return "", d.errorf("bad escape in a string")
			}
			sb.WriteRune(r)
			i += n
		default: // invalid UTF-8, replaced one byte at a time
			sb.WriteRune(utf8.RuneError)
			i++
		}
		run = i
	}
	sb.Write(b[run:])
	d.i = end + 1
	return sb.String(), nil
}

// plainRun returns the length of the printable ASCII text b starts with,
// backslashes excluded: the bytes a string literal holds as they are.
func plainRun(b []byte) int {
	for i, c := range b {
		if c < ' ' || c >= utf8.RuneSelf || c == '\\' {
			return i
		}
	}
	return len(b)
}

// closingQuote returns the index of the first quote that no backslash
// escapes in the string literal whose text starts at start, or -1.
func closingQuote(b []byte, start int) int {
	for from := start; ; {
		q := bytes.IndexByte(b[from:], '"')
		if q < 0 {
			return -1
		}
		q += from
		k := q
		for k > start && b[k-1] == '\\' {
			k--
		}
		if (q-k)%2 == 0 {
			return q
		}
		from = q + 1
	}
}

// unescape decodes the escape sequence s starts with and returns its
// length and rune, or 0 if it is not a valid JSON escape. A \uXXXX
// surrogate pair decodes as one rune; a lone surrogate is U+FFFD.
func unescape(s []byte) (int, rune) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case '"', '\\', '/':
		return 2, rune(s[1])
	case 'b':
		return 2, '\b'
	case 'f':
		return 2, '\f'
	case 'n':
		return 2, '\n'
	case 'r':
		return 2, '\r'
	case 't':
		return 2, '\t'
	case 'u':
		r := hex4(s[2:])
		if r < 0 {
			return 0, 0
		}
		if utf16.IsSurrogate(r) {
			if len(s) >= 12 && s[6] == '\\' && s[7] == 'u' {
				if pair := utf16.DecodeRune(r, hex4(s[8:])); pair != utf8.RuneError {
					return 12, pair
				}
			}
			return 6, utf8.RuneError
		}
		return 6, r
	}
	return 0, 0
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
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
	// The body is decoded before the name resolves, because the circuit
	// operation has no registry entry: its experiment is built from the
	// body's circuit text.
	req, err := decodeRunRequest(http.MaxBytesReader(w, r.Body, maxRunBody), r.ContentLength)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// The sweep name and the build function are resolved here; the build
	// runs inside Submit, and only on a result-cache miss, so a repeated
	// circuit is answered by its content key without being parsed or
	// planned. On a miss the circuit's plan comes from the server's plan
	// cache when an earlier request left it there.
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
			exp, err := requestExperiment(s.jobs.plans, req.Circuit)
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
