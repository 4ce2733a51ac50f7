package explore_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/phys"
)

// scrape renders the registry and returns the parsed exposition.
func scrape(t *testing.T, reg *obs.Registry) map[string]*obs.Family {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("registry renders invalid exposition: %v\n%s", err, sb.String())
	}
	return fams
}

// metricValue returns the sample value for name with exactly the given
// labels, or 0 when the series does not exist (yet).
func metricValue(t *testing.T, reg *obs.Registry, name string, labels map[string]string) float64 {
	t.Helper()
	fams := scrape(t, reg)
	f := fams[name]
	if f == nil {
		// Histogram _count/_sum/_bucket samples live under the base family.
		for _, suffix := range []string{"_count", "_sum", "_bucket"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] != nil {
				f = fams[base]
				break
			}
		}
	}
	if f == nil {
		return 0
	}
sample:
	for _, s := range f.Samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		for k, v := range labels {
			if s.Labels[k] != v {
				continue sample
			}
		}
		return s.Value
	}
	return 0
}

// TestJobMetricsLifecycle drives the manager through every lifecycle edge
// — queue, run, coalesce, drain — and checks the counters are monotone
// and the phase gauges return to zero once Shutdown has drained.
func TestJobMetricsLifecycle(t *testing.T) {
	probeExperiments(t)
	reg := obs.NewRegistry()
	m := explore.NewTestManager(explore.WithObservability(reg), explore.WithMaxEvaluations(1))
	exp, err := explore.Lookup("zslow")
	if err != nil {
		t.Fatal(err)
	}
	spec := explore.JobSpec{Phys: phys.Projected(), Seed: 20601, Parallel: 1}

	j1, hit, err := submit(m, exp, spec)
	if err != nil || hit {
		t.Fatalf("first submit: hit=%v err=%v", hit, err)
	}
	spec2 := spec
	spec2.Seed = 20602
	j2, _, err := submit(m, exp, spec2)
	if err != nil {
		t.Fatal(err)
	}

	// With one evaluation slot, j1 runs (gated on zslowGate) and j2 queues.
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, reg, "cqla_jobs_running", nil) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("running gauge never reached 1")
		}
		time.Sleep(time.Millisecond)
	}
	if got := metricValue(t, reg, "cqla_jobs_queued", nil); got != 1 {
		t.Errorf("queued gauge = %g with one job waiting, want 1", got)
	}

	// An identical third submission coalesces onto j1: no new evaluation,
	// no result-cache hit.
	j3, hit, err := submit(m, exp, spec)
	if err != nil || hit || j3 != j1 {
		t.Fatalf("coalescing submit: job=%v hit=%v err=%v", j3 == j1, hit, err)
	}
	if got := metricValue(t, reg, "cqla_jobs_coalesced_total", nil); got != 1 {
		t.Errorf("coalesced = %g, want 1", got)
	}
	if got := metricValue(t, reg, "cqla_result_cache_hits_total", nil); got != 0 {
		t.Errorf("cache hits = %g before any job finished, want 0", got)
	}

	// Release both jobs: three gated points each.
	for i := 0; i < 6; i++ {
		zslowGate <- struct{}{}
	}
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for name, want := range map[string]float64{
		"cqla_jobs_queued":               0, // gauges drain with the manager
		"cqla_jobs_running":              0,
		"cqla_jobs_submitted_total":      3,
		"cqla_jobs_coalesced_total":      1,
		"cqla_result_cache_hits_total":   0,
		"cqla_result_cache_misses_total": 2,
	} {
		if got := metricValue(t, reg, name, nil); got != want {
			t.Errorf("%s = %g after drain, want %g", name, got, want)
		}
	}
	if got := metricValue(t, reg, "cqla_jobs_completed_total", map[string]string{"state": "done"}); got != 2 {
		t.Errorf("completed{done} = %g, want 2", got)
	}
	if got := metricValue(t, reg, "cqla_job_run_seconds_count", nil); got != 2 {
		t.Errorf("run-duration observations = %g, want 2", got)
	}
	if got := metricValue(t, reg, "cqla_job_queue_wait_seconds_count", nil); got != 2 {
		t.Errorf("queue-wait observations = %g, want 2", got)
	}
}

// TestServeCacheHitCounter: every X-Cache: hit response increments the
// result-cache hit counter exactly once.
func TestServeCacheHitCounter(t *testing.T) {
	probeExperiments(t)
	reg := obs.NewRegistry()
	srv, _ := newJobsServer(t, explore.WithObservability(reg))

	hits := func() float64 { return metricValue(t, reg, "cqla_result_cache_hits_total", nil) }
	resp, doc := postRun(t, srv, "zprobe", `{"seed": 20611}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %s (%s)", resp.Status, doc)
	}
	if got := hits(); got != 0 {
		t.Fatalf("cache hits = %g after a cold run, want 0", got)
	}
	for i := 1; i <= 2; i++ {
		resp, _ := postRun(t, srv, "zprobe", `{"seed": 20611}`)
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("repeat run %d: X-Cache = %q, want hit", i, got)
		}
		if got := hits(); got != float64(i) {
			t.Errorf("cache hits = %g after %d hit responses, want %d", got, i, i)
		}
	}
}

// TestServeMetricsEndpoint: GET /metrics serves a valid Prometheus text
// exposition that, after one sweep ran, includes the job, HTTP, plan-cache
// and per-sweep evaluation-latency families.
func TestServeMetricsEndpoint(t *testing.T) {
	probeExperiments(t)
	reg := obs.NewRegistry()
	srv, _ := newJobsServer(t, explore.WithObservability(reg))

	if resp, doc := postRun(t, srv, "zprobe", `{"seed": 20621}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %s (%s)", resp.Status, doc)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ExpositionContentType)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	for _, name := range []string{
		"cqla_jobs_submitted_total",
		"cqla_jobs_running",
		"cqla_point_eval_seconds",
		"cqla_evalcache_misses_total",
		"cqla_plan_cache_instructions",
		"cqla_http_requests_total",
		"cqla_http_request_seconds",
	} {
		if fams[name] == nil {
			t.Errorf("/metrics is missing %s", name)
		}
	}
	// The run request was counted against its route pattern, not its path.
	if got := metricValue(t, reg, "cqla_http_requests_total",
		map[string]string{"route": "POST /v1/sweeps/{op}", "code": "200"}); got != 1 {
		t.Errorf("http requests for the run route = %g, want 1", got)
	}
}

// TestServeVersionEndpoint: GET /v1/version reports schema and build
// identity.
func TestServeVersionEndpoint(t *testing.T) {
	srv, _ := newJobsServer(t)
	resp, err := http.Get(srv.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/version: %s", resp.Status)
	}
	var v struct {
		SchemaVersion int    `json:"schema_version"`
		GoVersion     string `json:"go_version"`
		Module        string `json:"module"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.SchemaVersion < 1 || v.GoVersion == "" {
		t.Errorf("version response: %+v", v)
	}
}

// TestServePprofGate: the profile endpoints exist only behind WithPprof.
func TestServePprofGate(t *testing.T) {
	get := func(srv string) int {
		resp, err := http.Get(srv + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	off, _ := newJobsServer(t)
	if code := get(off.URL); code != http.StatusNotFound {
		t.Errorf("pprof without WithPprof: status %d, want 404", code)
	}
	on, _ := newJobsServer(t, explore.WithPprof(true))
	if code := get(on.URL); code != http.StatusOK {
		t.Errorf("pprof with WithPprof: status %d, want 200", code)
	}
}
