package explore_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/phys"
)

// The jobs-layer HTTP tests need registered experiments whose evaluators
// the tests can observe and gate. Registration is global and permanent,
// so it happens once; the z- prefix sorts them after the paper sweeps.
var (
	registerProbes sync.Once
	zprobeCalls    atomic.Int64
	zslowGate      = make(chan struct{})
)

func probeExperiments(t *testing.T) {
	t.Helper()
	registerProbes.Do(func() {
		explore.Register(&explore.Experiment{
			Name:  "zprobe",
			Title: "jobs-layer test probe (counts evaluations)",
			Axes:  []explore.Axis{explore.Ints("i", 1, 2)},
			Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
				zprobeCalls.Add(1)
				return []explore.Metric{{Name: "v", Value: float64(2 * in.Int("i"))}}, nil
			},
		})
		explore.Register(&explore.Experiment{
			Name:  "zslow",
			Title: "jobs-layer test probe (gated evaluations)",
			Axes:  []explore.Axis{explore.Ints("i", 1, 2, 3)},
			Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
				select {
				case <-zslowGate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return []explore.Metric{{Name: "v", Value: float64(in.Int("i"))}}, nil
			},
		})
	})
}

// newJobsServer starts an API server whose job manager is drained at
// cleanup, so a test that leaves a job gated cannot leak its goroutines
// into the next test.
func newJobsServer(t *testing.T, opts ...explore.ManagerOption) (*httptest.Server, *explore.Server) {
	t.Helper()
	api := explore.NewServer(opts...)
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		api.Shutdown(ctx)
	})
	return srv, api
}

func postRun(t *testing.T, srv *httptest.Server, sweep, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/sweeps/"+sweep+":run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, doc
}

// submit hands a prebuilt experiment to Submit under its own name.
func submit(m *explore.Manager, exp *explore.Experiment, spec explore.JobSpec) (*explore.Job, bool, error) {
	spec.Sweep = "nil-experiment"
	if exp != nil {
		spec.Sweep = exp.Name
	}
	return m.Submit(spec, func() (*explore.Experiment, error) { return exp, nil })
}

// TestServeCacheHit: the second identical run is served from the result
// cache — byte-identical document, X-Cache: hit, no re-evaluation — and
// parallelism is excluded from the cache key.
func TestServeCacheHit(t *testing.T) {
	probeExperiments(t)
	srv, _ := newJobsServer(t)

	before := zprobeCalls.Load()
	resp1, doc1 := postRun(t, srv, "zprobe", `{"seed": 3}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %s (%s)", resp1.Status, doc1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first run X-Cache = %q, want miss", got)
	}
	if n := zprobeCalls.Load() - before; n != 2 { // 2 unique points
		t.Fatalf("cold run evaluated %d points, want 2", n)
	}

	resp2, doc2 := postRun(t, srv, "zprobe", `{"seed": 3}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %s", resp2.Status)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(doc1, doc2) {
		t.Errorf("cached document differs from cold run:\n%s\nvs\n%s", doc1, doc2)
	}
	if n := zprobeCalls.Load() - before; n != 2 {
		t.Errorf("cache hit re-evaluated: %d total evaluations, want 2", n)
	}

	// A different -parallel is the same result: parallelism is not part
	// of the key.
	resp3, doc3 := postRun(t, srv, "zprobe", `{"seed": 3, "parallel": 2}`)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("different-parallelism run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(doc1, doc3) {
		t.Error("different-parallelism run served different bytes")
	}

	// A different seed is a different key.
	resp4, _ := postRun(t, srv, "zprobe", `{"seed": 4}`)
	if got := resp4.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different-seed run X-Cache = %q, want miss", got)
	}
}

// TestJobsCoalesce: a second submission of a key already in flight
// attaches to the running job instead of recomputing.
func TestJobsCoalesce(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	exp := &explore.Experiment{
		Name:  "t-coalesce",
		Title: "coalescing fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			calls.Add(1)
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []explore.Metric{{Name: "v", Value: 1}}, nil
		},
	}
	m := explore.NewTestManager()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	spec := explore.JobSpec{Phys: phys.Projected(), Seed: 1}
	j1, hit1, err := submit(m, exp, spec)
	if err != nil || hit1 {
		t.Fatalf("first Submit: job=%v hit=%v err=%v", j1, hit1, err)
	}
	j2, hit2, err := submit(m, exp, spec)
	if err != nil || hit2 {
		t.Fatalf("second Submit: hit=%v err=%v", hit2, err)
	}
	if j1 != j2 {
		t.Fatalf("in-flight submission did not coalesce: %s vs %s", j1.ID, j2.ID)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	doc, err := j1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("coalesced job evaluated %d times, want 1", n)
	}
	// After completion the key is cached: a third submission is an
	// instantly-done job with the same bytes.
	j3, hit3, err := submit(m, exp, spec)
	if err != nil || !hit3 {
		t.Fatalf("post-completion Submit: hit=%v err=%v", hit3, err)
	}
	if j3 == j1 {
		t.Error("cache-hit submission reused the finished job record")
	}
	doc3, err := j3.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, doc3) {
		t.Error("cached document differs from the computed one")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("cache hit re-evaluated: %d calls", n)
	}
}

// TestJobsCacheBudget: a budget smaller than the document disables
// caching for it rather than evicting everything else.
func TestJobsCacheBudget(t *testing.T) {
	var calls atomic.Int64
	exp := &explore.Experiment{
		Name:  "t-budget",
		Title: "cache budget fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			calls.Add(1)
			return []explore.Metric{{Name: "v", Value: 1}}, nil
		},
	}
	m := explore.NewTestManager(explore.WithCacheBytes(1))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spec := explore.JobSpec{Phys: phys.Projected(), Seed: 1}
	for want := int64(1); want <= 2; want++ {
		j, hit, err := submit(m, exp, spec)
		if err != nil || hit {
			t.Fatalf("Submit %d: hit=%v err=%v", want, hit, err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != want {
			t.Fatalf("after run %d: %d evaluations", want, n)
		}
	}
}

// TestServeAsyncJobLifecycle is the acceptance path: 202 with a job id,
// monotone progress through queued/running, a done state whose document
// is byte-identical to what the synchronous (cached) endpoint serves.
func TestServeAsyncJobLifecycle(t *testing.T) {
	probeExperiments(t)
	srv, _ := newJobsServer(t)

	resp, body := postRun(t, srv, "zslow", `{"seed": 9, "async": true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async run: %s (%s)", resp.Status, body)
	}
	var st explore.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("202 body does not parse: %v\n%s", err, body)
	}
	if st.ID == "" || (st.State != explore.JobQueued && st.State != explore.JobRunning) {
		t.Fatalf("202 status: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q", loc)
	}
	if st.Total != 3 {
		t.Errorf("total = %d, want 3", st.Total)
	}

	// Release the three gated points and poll the job to done, checking
	// progress never regresses.
	go func() {
		for i := 0; i < 3; i++ {
			zslowGate <- struct{}{}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	lastDone := 0
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish; last status %+v", st.ID, st)
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			explore.JobStatus
			Report json.RawMessage `json:"report"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.Done < lastDone {
			t.Fatalf("progress went backwards: %d -> %d", lastDone, view.Done)
		}
		lastDone = view.Done
		st = view.JobStatus
		if st.State == explore.JobFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if st.State == explore.JobDone {
			if st.Done != 3 || st.Total != 3 {
				t.Errorf("done job progress %d/%d, want 3/3", st.Done, st.Total)
			}
			if len(view.Report) == 0 {
				t.Error("done job carries no report")
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The raw report endpoint serves the document verbatim, and the
	// synchronous endpoint now serves the identical bytes from cache —
	// the async and sync paths share one contract.
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("report endpoint: %s", resp2.Status)
	}
	respSync, docSync := postRun(t, srv, "zslow", `{"seed": 9}`)
	if respSync.StatusCode != http.StatusOK {
		t.Fatalf("sync run after async: %s", respSync.Status)
	}
	if got := respSync.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("sync run after async X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(raw, docSync) {
		t.Errorf("async report and sync document differ:\n%s\nvs\n%s", raw, docSync)
	}

	// The job shows up in the listing.
	resp3, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []explore.JobStatus `json:"jobs"`
	}
	err = json.NewDecoder(resp3.Body).Decode(&listing)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range listing.Jobs {
		if j.ID == st.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("job %s missing from /v1/jobs (%d jobs listed)", st.ID, len(listing.Jobs))
	}
}

// TestJobsSemaphoreBounds: with one evaluation slot, two distinct jobs
// never evaluate concurrently — the second queues until the first ends.
func TestJobsSemaphoreBounds(t *testing.T) {
	var running, maxRunning atomic.Int64
	gate := make(chan struct{})
	exp := &explore.Experiment{
		Name:  "t-sem",
		Title: "semaphore fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			cur := running.Add(1)
			defer running.Add(-1)
			for {
				seen := maxRunning.Load()
				if cur <= seen || maxRunning.CompareAndSwap(seen, cur) {
					break
				}
			}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []explore.Metric{{Name: "v", Value: float64(in.Seed)}}, nil
		},
	}
	m := explore.NewTestManager(explore.WithMaxEvaluations(1))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	j1, _, err := submit(m, exp, explore.JobSpec{Phys: phys.Projected(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j2, _, err := submit(m, exp, explore.JobSpec{Phys: phys.Projected(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one may hold the slot; the other must still be queued.
	deadline := time.Now().Add(5 * time.Second)
	for running.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("no job reached the evaluator")
		}
		time.Sleep(time.Millisecond)
	}
	states := []explore.JobState{j1.Status().State, j2.Status().State}
	queued := 0
	for _, s := range states {
		if s == explore.JobQueued {
			queued++
		}
	}
	if queued != 1 {
		t.Errorf("job states %v, want exactly one queued", states)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	gate <- struct{}{}
	gate <- struct{}{}
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := maxRunning.Load(); got != 1 {
		t.Errorf("max concurrent evaluations = %d, want 1", got)
	}
}

// TestJobsHistoryCap: the manager retains the newest 256 finished job
// records, newest first, and never evicts a job that is still in flight,
// however old.
func TestJobsHistoryCap(t *testing.T) {
	gate := make(chan struct{})
	gated := &explore.Experiment{
		Name:  "t-history-gated",
		Title: "history fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []explore.Metric{{Name: "v", Value: 1}}, nil
		},
	}
	quick := &explore.Experiment{
		Name:  "t-history-quick",
		Title: "history fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			return []explore.Metric{{Name: "v", Value: 2}}, nil
		},
	}
	// Two evaluation slots: the gated job holds one while the quick job
	// fills the cache through the other.
	m := explore.NewTestManager(explore.WithMaxEvaluations(2))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spec := explore.JobSpec{Phys: phys.Projected(), Seed: 1}
	inflight, _, err := submit(m, gated, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := submit(m, quick, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	const runs, history = 300, 256
	ids := make([]string, runs)
	for i := range ids {
		j, hit, err := submit(m, quick, spec)
		if err != nil || !hit {
			t.Fatalf("run %d: hit=%v err=%v, want a cache-served job", i, hit, err)
		}
		ids[i] = j.ID
	}
	jobs := m.Jobs()
	if len(jobs) != history+1 {
		t.Fatalf("retained %d jobs, want %d finished plus the in-flight one", len(jobs), history)
	}
	for i := 0; i < history; i++ {
		if want := ids[runs-1-i]; jobs[i].ID != want {
			t.Fatalf("Jobs()[%d] = %s, want %s (the newest %d, newest first)", i, jobs[i].ID, want, history)
		}
	}
	if last := jobs[history]; last.ID != inflight.ID || (last.State != explore.JobQueued && last.State != explore.JobRunning) {
		t.Errorf("oldest retained job = %s (%s), want the in-flight %s", last.ID, last.State, inflight.ID)
	}
	if _, ok := m.Job(first.ID); ok {
		t.Error("the oldest finished job survived trimming")
	}
	close(gate)
	if _, err := inflight.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Jobs()); n != history {
		t.Errorf("retained %d jobs once everything finished, want %d", n, history)
	}
}

// TestJobsHistoryTrimsOldestFinished: with in-flight jobs admitted at the
// start, middle and end of a run of 256+k finished ones (one of them
// failed), exactly the oldest k finished records are evicted and every
// in-flight job is retained; once those finish, the cap holds again.
func TestJobsHistoryTrimsOldestFinished(t *testing.T) {
	gate := make(chan struct{})
	gated := &explore.Experiment{
		Name:  "t-trim-gated",
		Title: "trim fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []explore.Metric{{Name: "v", Value: 1}}, nil
		},
	}
	quick := &explore.Experiment{
		Name:  "t-trim-quick",
		Title: "trim fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			return []explore.Metric{{Name: "v", Value: 2}}, nil
		},
	}
	failing := &explore.Experiment{
		Name:  "t-trim-failing",
		Title: "trim fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			return nil, errors.New("fixture failure")
		},
	}
	// Four slots: three gated jobs hold three while the quick and failing
	// jobs run through the fourth.
	m := explore.NewTestManager(explore.WithMaxEvaluations(4))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const history, k = 256, 5
	var finished []string
	var inflight []*explore.Job
	run := func(exp *explore.Experiment, seed int64) {
		t.Helper()
		j, _, err := submit(m, exp, explore.JobSpec{Phys: phys.Projected(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if exp == gated {
			inflight = append(inflight, j)
			return
		}
		j.Wait(ctx)
		if st := j.Status().State; st != explore.JobDone && st != explore.JobFailed {
			t.Fatalf("job %s is %s, want finished", j.ID, st)
		}
		finished = append(finished, j.ID)
	}
	run(quick, 1)
	run(gated, 1)
	run(failing, 1)
	for len(finished) < history+k {
		switch len(finished) {
		case 100:
			run(gated, 2)
		case history + k - 1:
			run(gated, 3)
		}
		run(quick, 1)
	}
	for i, id := range finished {
		if _, ok := m.Job(id); ok != (i >= k) {
			t.Errorf("finished job %d (%s): retained=%v, want only the oldest %d evicted", i, id, ok, k)
		}
	}
	for _, j := range inflight {
		if _, ok := m.Job(j.ID); !ok {
			t.Errorf("in-flight job %s was evicted", j.ID)
		}
	}
	if n := len(m.Jobs()); n != history+len(inflight) {
		t.Errorf("retained %d jobs, want %d finished plus %d in flight", n, history, len(inflight))
	}
	// Each gated job that finishes pushes out the oldest finished record
	// left; the cap still holds.
	close(gate)
	for _, j := range inflight {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.Jobs()); n != history {
		t.Errorf("retained %d jobs once everything finished, want %d", n, history)
	}
}

// TestJobsShutdownDrains: Shutdown rejects new work but lets the running
// job finish, and reports a clean drain.
func TestJobsShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	slow := &explore.Experiment{
		Name:  "t-drain-slow",
		Title: "drain fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []explore.Metric{{Name: "v", Value: 7}}, nil
		},
	}
	quick := &explore.Experiment{
		Name:  "t-drain-quick",
		Title: "drain fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			return []explore.Metric{{Name: "v", Value: 1}}, nil
		},
	}
	m := explore.NewTestManager()
	j, _, err := submit(m, slow, explore.JobSpec{Phys: phys.Projected(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- m.Shutdown(ctx)
	}()
	// Submissions are rejected once shutdown has begun.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err := submit(m, quick, explore.JobSpec{Phys: phys.Projected(), Seed: time.Now().UnixNano() % 1000})
		if errors.Is(err, explore.ErrShuttingDown) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit still accepted after Shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // let the running job finish
	if err := <-done; err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}
	doc, err := j.Document()
	if err != nil {
		t.Fatalf("drained job: %v", err)
	}
	if st := j.Status(); st.State != explore.JobDone || len(doc) == 0 {
		t.Errorf("drained job state %s, %d document bytes", st.State, len(doc))
	}
}

// TestJobSpecKey pins the cache-key contract: schema-version-qualified,
// sensitive to every output-determining input, insensitive to Parallel.
func TestJobSpecKey(t *testing.T) {
	base := explore.JobSpec{Sweep: "table4", Phys: phys.Projected(), Seed: 1, Engine: "analytic"}
	if base.Key() != base.Key() {
		t.Fatal("Key is not deterministic")
	}
	// The digest is the one the key has always had: sha256 over the
	// 0x1f-separated fields, first 12 bytes in hex.
	withCircuit := base
	withCircuit.Circuit = strings.Repeat("qubits 2\nh 0\ncnot 0 1\n", 100)
	for _, s := range []explore.JobSpec{base, withCircuit} {
		sum := sha256.Sum256([]byte(fmt.Sprintf("v%d\x1f%s\x1f%s\x1f%d\x1f%s\x1f%s",
			explore.SchemaVersion, s.Sweep, s.Phys.Name, s.Seed, s.Engine, s.Circuit)))
		if want := hex.EncodeToString(sum[:12]); s.Key() != want {
			t.Errorf("Key() = %s, want %s (circuit of %d bytes)", s.Key(), want, len(s.Circuit))
		}
	}
	same := base
	same.Parallel = 8
	if same.Key() != base.Key() {
		t.Error("Parallel changed the key; outputs are parallelism-independent")
	}
	for name, mut := range map[string]func(*explore.JobSpec){
		"sweep":   func(s *explore.JobSpec) { s.Sweep = "table5" },
		"phys":    func(s *explore.JobSpec) { s.Phys = phys.Current() },
		"seed":    func(s *explore.JobSpec) { s.Seed = 2 },
		"engine":  func(s *explore.JobSpec) { s.Engine = "des" },
		"circuit": func(s *explore.JobSpec) { s.Circuit = "qubits 1\nh 0\n" },
	} {
		changed := base
		mut(&changed)
		if changed.Key() == base.Key() {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestManagerSubmitValidation: a spec without a sweep name, a missing or
// failing build function, a build whose experiment has another name and a
// bad engine are all rejected, and none of them leaves a job behind.
func TestManagerSubmitValidation(t *testing.T) {
	m := explore.NewTestManager()
	exp := &explore.Experiment{
		Name:  "t-submit-bad",
		Title: "validation fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval:  nopEval,
	}
	built := func() (*explore.Experiment, error) { return exp, nil }
	if _, _, err := m.Submit(explore.JobSpec{}, built); err == nil {
		t.Error("Submit without a sweep name succeeded")
	}
	if _, _, err := m.Submit(explore.JobSpec{Sweep: exp.Name}, nil); err == nil {
		t.Error("Submit without a build function succeeded")
	}
	if _, _, err := submit(m, nil, explore.JobSpec{}); err == nil {
		t.Error("Submit of a nil experiment succeeded")
	}
	if _, _, err := m.Submit(explore.JobSpec{Sweep: "t-submit-other"}, built); err == nil {
		t.Error("Submit accepted an experiment whose name differs from the spec's sweep")
	}
	boom := errors.New("boom")
	if _, _, err := m.Submit(explore.JobSpec{Sweep: exp.Name}, func() (*explore.Experiment, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("failing build: Submit error = %v, want the build's error", err)
	}
	unbuilt := func() (*explore.Experiment, error) {
		t.Error("Submit built an experiment for a spec with an unknown engine")
		return exp, nil
	}
	if _, _, err := m.Submit(explore.JobSpec{Sweep: exp.Name, Engine: "abacus"}, unbuilt); err == nil {
		t.Error("Submit with unknown engine succeeded")
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Errorf("rejected submissions left %d jobs", len(jobs))
	}
}

// TestSubmitBuildsOnlyOnMiss: Submit resolves the cache key before it
// builds anything. A key in flight coalesces and a cached key is served
// without calling build; a failed build caches nothing, so the next
// submission of its key builds again.
func TestSubmitBuildsOnlyOnMiss(t *testing.T) {
	gate := make(chan struct{})
	exp := &explore.Experiment{
		Name:  "t-build-once",
		Title: "build-on-miss fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1, 2, 3)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []explore.Metric{{Name: "v", Value: float64(in.Int("i"))}}, nil
		},
	}
	m := explore.NewTestManager()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	spec := explore.JobSpec{Sweep: exp.Name, Phys: phys.Projected(), Seed: 1}
	var builds atomic.Int64
	build := func() (*explore.Experiment, error) {
		builds.Add(1)
		return exp, nil
	}
	mustNotBuild := func() (*explore.Experiment, error) {
		t.Error("Submit built an experiment for a key in flight or cached")
		return exp, nil
	}

	j1, hit, err := m.Submit(spec, build)
	if err != nil || hit || builds.Load() != 1 {
		t.Fatalf("first Submit: hit=%v err=%v builds=%d", hit, err, builds.Load())
	}
	j2, hit, err := m.Submit(spec, mustNotBuild)
	if err != nil || hit || j2 != j1 {
		t.Fatalf("in-flight Submit: same job=%v hit=%v err=%v", j2 == j1, hit, err)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	doc, err := j1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	j3, hit, err := m.Submit(spec, mustNotBuild)
	if err != nil || !hit {
		t.Fatalf("cached Submit: hit=%v err=%v", hit, err)
	}
	if doc3, _ := j3.Document(); !bytes.Equal(doc3, doc) {
		t.Error("cache hit served different bytes")
	}
	if st := j3.Status(); st.Total != exp.Size() || st.Done != exp.Size() {
		t.Errorf("cache-hit job progress %d/%d, want %d/%d from the cached point count", st.Done, st.Total, exp.Size(), exp.Size())
	}

	// A failed build is not remembered: the same key builds again.
	bad := spec
	bad.Seed = 2
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, _, err := m.Submit(bad, func() (*explore.Experiment, error) { return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("failing build %d: err = %v, want the build's error", i, err)
		}
	}
	if _, hit, err := m.Submit(bad, build); err != nil || hit || builds.Load() != 2 {
		t.Errorf("Submit after failed builds: hit=%v err=%v builds=%d, want a fresh build", hit, err, builds.Load())
	}
}

// TestSubmitRaceCoalesces: two submissions of one new key that both miss
// and build still end on one job. The first build is held until the
// second submission has queued its job; its re-check then finds that job
// in flight.
func TestSubmitRaceCoalesces(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	exp := &explore.Experiment{
		Name:  "t-build-race",
		Title: "build race fixture",
		Axes:  []explore.Axis{explore.Ints("i", 1)},
		Eval: func(ctx context.Context, in explore.In) ([]explore.Metric, error) {
			calls.Add(1)
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []explore.Metric{{Name: "v", Value: 1}}, nil
		},
	}
	m := explore.NewTestManager()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	spec := explore.JobSpec{Sweep: exp.Name, Phys: phys.Projected(), Seed: 1}
	building, release := make(chan struct{}), make(chan struct{})
	type result struct {
		j   *explore.Job
		err error
	}
	first := make(chan result, 1)
	go func() {
		j, _, err := m.Submit(spec, func() (*explore.Experiment, error) {
			close(building)
			<-release
			return exp, nil
		})
		first <- result{j, err}
	}()
	<-building
	j2, hit, err := submit(m, exp, spec)
	if err != nil || hit {
		t.Fatalf("second Submit: hit=%v err=%v", hit, err)
	}
	close(release)
	r := <-first
	if r.err != nil || r.j != j2 {
		t.Fatalf("racing Submit: err=%v, same job=%v", r.err, r.j == j2)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("racing submissions evaluated %d times, want 1", n)
	}
}

// TestServeJobEndpointErrors covers the job API's failure paths.
func TestServeJobEndpointErrors(t *testing.T) {
	srv, _ := newJobsServer(t)
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/report"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	// The report of an unfinished job is a conflict, not a 200 of garbage.
	probeExperiments(t)
	resp, body := postRun(t, srv, "zslow", `{"seed": 77, "async": true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async run: %s (%s)", resp.Status, body)
	}
	var st explore.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("report of unfinished job: %d, want 409", resp2.StatusCode)
	}
	// Unblock the gated points and wait the job out, so the tokens are
	// consumed inside this test rather than leaking into cleanup.
	go func() {
		for i := 0; i < 3; i++ {
			zslowGate <- struct{}{}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", st.ID)
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view explore.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.State == explore.JobDone || view.State == explore.JobFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}
