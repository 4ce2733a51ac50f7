package explore_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/obs"
)

// bellSource is a tiny valid circuit in the text format, small enough that
// the circuit operation's block-budget sweep stays fast under -race.
const bellSource = "qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n"

func circuitBody(t *testing.T, source string, extra map[string]any) string {
	t.Helper()
	m := map[string]any{"circuit": source}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeCircuitRun: POST /v1/sweeps/circuit:run evaluates the inline
// circuit, a repeat is a cache hit with the same bytes and the full point
// count and no second evaluation, and a different circuit is a different
// cache key even though both share the sweep name "circuit".
func TestServeCircuitRun(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _ := newJobsServer(t, explore.WithObservability(reg))

	resp1, doc1 := postRun(t, srv, "circuit", circuitBody(t, bellSource, nil))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("circuit run: %s (%s)", resp1.Status, doc1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first circuit run X-Cache = %q, want miss", got)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Points     []struct {
			Metrics map[string]float64 `json:"metrics"`
		} `json:"points"`
	}
	if err := json.Unmarshal(doc1, &rep); err != nil {
		t.Fatalf("circuit run document is not a report: %v\n%s", err, doc1)
	}
	if rep.Experiment != "circuit" {
		t.Errorf("report experiment = %q, want circuit", rep.Experiment)
	}
	if len(rep.Points) == 0 {
		t.Fatal("circuit run produced no points")
	}
	if _, ok := rep.Points[0].Metrics["computation_s"]; !ok {
		t.Errorf("circuit point lacks computation_s: %v", rep.Points[0].Metrics)
	}

	resp2, doc2 := postRun(t, srv, "circuit", circuitBody(t, bellSource, nil))
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat circuit run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(doc1, doc2) {
		t.Error("repeat circuit run served different bytes")
	}
	if got := metricValue(t, reg, "cqla_result_cache_misses_total", nil); got != 1 {
		t.Errorf("evaluations after a miss and a hit = %g, want 1", got)
	}
	if jobs := listJobs(t, srv); len(jobs) != 2 || jobs[0].Total != len(rep.Points) || jobs[0].Done != jobs[0].Total {
		t.Errorf("jobs after a miss and a hit: %+v, want the hit at %d/%d points", jobs, len(rep.Points), len(rep.Points))
	}

	// A different circuit must not alias in the result cache: same sweep
	// name, different source, different key.
	other := "qubits 2\nh 0\nh 1\nmeasure 0\nmeasure 1\n"
	resp3, doc3 := postRun(t, srv, "circuit", circuitBody(t, other, nil))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("second circuit: %s (%s)", resp3.Status, doc3)
	}
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different circuit X-Cache = %q, want miss", got)
	}
}

// TestServeCircuitValidation: the circuit operation demands a circuit
// field, rejects malformed sources with the parser's position on every
// attempt without leaving a job or a cache entry, and the field is
// invalid on registry sweeps.
func TestServeCircuitValidation(t *testing.T) {
	probeExperiments(t)
	reg := obs.NewRegistry()
	srv, _ := newJobsServer(t, explore.WithObservability(reg))

	resp, doc := postRun(t, srv, "circuit", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("circuit op without circuit field: %s, want 400 (%s)", resp.Status, doc)
	}

	for i := 0; i < 2; i++ {
		resp, doc = postRun(t, srv, "circuit", circuitBody(t, "qubits 2\ncnot 0 7\n", nil))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("out-of-range circuit, attempt %d: %s, want 400", i+1, resp.Status)
		}
		if !strings.Contains(string(doc), "bad circuit") || !strings.Contains(string(doc), "line 2") {
			t.Errorf("parse failure lost its position: %s", doc)
		}
	}
	for _, name := range []string{"cqla_jobs_submitted_total", "cqla_result_cache_hits_total", "cqla_result_cache_misses_total"} {
		if got := metricValue(t, reg, name, nil); got != 0 {
			t.Errorf("%s = %g after bad circuits, want 0", name, got)
		}
	}
	if jobs := listJobs(t, srv); len(jobs) != 0 {
		t.Errorf("bad circuits left jobs: %+v", jobs)
	}

	resp, doc = postRun(t, srv, "zprobe", circuitBody(t, bellSource, nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("circuit field on registry sweep: %s, want 400 (%s)", resp.Status, doc)
	}
}

// TestServeCircuitAsyncThenSyncCoalesce: an async POST of a new circuit
// then a sync POST of the same circuit share one job. A gated probe job
// holds the one evaluation slot, so the circuit job is still queued when
// the sync request arrives.
func TestServeCircuitAsyncThenSyncCoalesce(t *testing.T) {
	probeExperiments(t)
	reg := obs.NewRegistry()
	srv, _ := newJobsServer(t, explore.WithObservability(reg), explore.WithMaxEvaluations(1))
	if resp, doc := postRun(t, srv, "zslow", `{"seed": 4101, "async": true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slot holder: %s (%s)", resp.Status, doc)
	}
	waitMetric(t, reg, "cqla_jobs_running", 1)
	body := circuitBody(t, bellSource, map[string]any{"seed": 4102, "async": true})
	resp, doc := postRun(t, srv, "circuit", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async circuit run: %s (%s)", resp.Status, doc)
	}
	var queued explore.JobStatus
	if err := json.Unmarshal(doc, &queued); err != nil {
		t.Fatal(err)
	}

	syncBody := circuitBody(t, bellSource, map[string]any{"seed": 4102})
	synced := make(chan []byte, 1)
	go func() {
		var doc []byte
		defer func() { synced <- doc }()
		resp, err := http.Post(srv.URL+"/v1/sweeps/circuit:run", "application/json", strings.NewReader(syncBody))
		if err != nil {
			t.Errorf("sync circuit run: %v", err)
			return
		}
		defer resp.Body.Close()
		doc, err = io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("sync circuit run: %s, %v (%s)", resp.Status, err, doc)
		}
	}()
	waitMetric(t, reg, "cqla_jobs_coalesced_total", 1)
	for i := 0; i < 3; i++ { // the probe's three gated points
		zslowGate <- struct{}{}
	}
	doc = <-synced
	report := getJobReport(t, srv, queued.ID)
	if !bytes.Equal(doc, report) {
		t.Error("the sync reply differs from the async job's report")
	}
	if got := metricValue(t, reg, "cqla_result_cache_misses_total", nil); got != 2 {
		t.Errorf("evaluations = %g, want 2 (the probe and one circuit job)", got)
	}
	circuitJobs := 0
	for _, j := range listJobs(t, srv) {
		if j.Sweep == "circuit" {
			circuitJobs++
		}
	}
	if circuitJobs != 1 {
		t.Errorf("%d circuit jobs, want the one the requests coalesced on", circuitJobs)
	}
}

// waitMetric polls the registry until the unlabeled series name reads want.
func waitMetric(t *testing.T, reg *obs.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, reg, name, nil) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %g", name, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func listJobs(t *testing.T, srv *httptest.Server) []explore.JobStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []explore.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Jobs
}

func getJobReport(t *testing.T, srv *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report of %s: %s (%s)", id, resp.Status, doc)
	}
	return doc
}
