package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/obs"
)

// Request classes of the serve-mix workload. Each exists to exercise one
// serve path. No recorded traffic says how often each path is taken, so
// the workload runs each class in rounds of its own and reports a
// summary over the classes that gives each the same weight (see combine).
var serveClasses = []string{
	"hit",          // a warm key: the result cache
	"miss",         // a fresh seed: a full evaluation behind the one evaluation slot
	"coalesce",     // async then sync POST of one fresh key: the in-flight attach path
	"circuit-hit",  // a circuit and seed sent before: parse and plan, then the cache
	"circuit-miss", // a circuit at a fresh seed: parse, plan and evaluate
}

// roundLen is how long a serve-mix round runs at least: the clients send
// whole cycles of the round's requests until it has passed.
const roundLen = 500 * time.Millisecond

// missSweeps are the sweeps that evaluate in under 100 ms, the ones the
// miss and coalesce classes request at fresh seeds.
var missSweeps = []string{"table4", "table5", "fig8a", "pareto", "overlap-sens", "xval", "workloads", "workload-blocks"}

// circuitBody is one custom circuit the circuit classes send.
type circuitBody struct{ name, text string }

func (c circuitBody) key() string { return "circuit/" + c.name + "@" + arch.EngineAnalytic }

func circuitBodies() []circuitBody {
	return []circuitBody{
		{"cla16", circuit.FormatString(gen.CarryLookahead(16).Circuit)},
		{"cla32", circuit.FormatString(gen.CarryLookahead(32).Circuit)},
		{"qft16", circuit.FormatString(gen.QFT(16, false))},
		{"qft32", circuit.FormatString(gen.QFT(32, false))},
	}
}

// sweepReq is one POST /v1/sweeps/{name}:run.
type sweepReq struct {
	sweep   string
	engine  string
	seed    int64
	circuit string
	async   bool
	key     string // digest-table key of the expected document
}

// warmKeys is the key set evaluated at set-up: every sweep but the Monte
// Carlo one on the analytic engine, plus the machine-backed sweeps on des.
func warmKeys() []sweepReq {
	var ks []sweepReq
	for _, e := range explore.Experiments() {
		if e.Name != "montecarlo" {
			ks = append(ks, sweepReq{sweep: e.Name, engine: arch.EngineAnalytic})
		}
	}
	for _, name := range desSweeps {
		ks = append(ks, sweepReq{sweep: name, engine: arch.EngineDES})
	}
	for i := range ks {
		ks[i].key = ks[i].sweep + "@" + ks[i].engine
	}
	return ks
}

// serveRig is the server under test, configured as `cqla serve`
// configures it, behind a real loopback listener.
type serveRig struct {
	api    *explore.Server
	ts     *httptest.Server
	table  digestTable
	seed   int64
	warm   []sweepReq
	bodies []circuitBody
}

func newServeRig(table digestTable, seed int64) *serveRig {
	api := explore.NewServer(
		explore.WithCacheBytes(64<<20),
		explore.WithMaxEvaluations(1),
		explore.WithObservability(obs.NewRegistry()),
		explore.WithLogger(obs.NewLogger(io.Discard, slog.LevelInfo, false)),
	)
	return &serveRig{api: api, ts: httptest.NewServer(api), table: table, seed: seed, warm: warmKeys(), bodies: circuitBodies()}
}

func (r *serveRig) close() error {
	r.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.api.Shutdown(ctx)
}

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// send posts one run request, reads the whole body and checks the answer:
// 202 for an async submission; 200 and the pinned document otherwise.
func (r *serveRig) send(ctx context.Context, c *http.Client, q sweepReq) error {
	payload, err := json.Marshal(struct {
		Seed    int64  `json:"seed"`
		Engine  string `json:"engine"`
		Async   bool   `json:"async,omitempty"`
		Circuit string `json:"circuit,omitempty"`
	}{q.seed, q.engine, q.async, q.circuit})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.ts.URL+"/v1/sweeps/"+q.sweep+":run", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	want := http.StatusOK
	if q.async {
		want = http.StatusAccepted
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s seed %d: status %d, want %d: %s", q.key, q.seed, resp.StatusCode, want, bytes.TrimSpace(body))
	}
	if q.async {
		return nil
	}
	return r.table.check(q.key, q.seed, body)
}

// setup evaluates the warm key set and sends every circuit once at the
// workload seed, checking each document. It returns the failures.
func (r *serveRig) setup(ctx context.Context) []error {
	c := newClient()
	defer c.CloseIdleConnections()
	var errs []error
	for _, k := range r.warm {
		k.seed = r.seed
		if err := r.send(ctx, c, k); err != nil {
			errs = append(errs, err)
		}
	}
	for _, b := range r.bodies {
		q := sweepReq{sweep: "circuit", engine: arch.EngineAnalytic, seed: r.seed, circuit: b.text, key: b.key()}
		if err := r.send(ctx, c, q); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// serveResult is what one serve window measured.
type serveResult struct {
	attempted, failed int
	segs              []segment            // one per round
	classMS           map[string][]float64 // latency per class, ms
	firstErr          error
}

// loadClient is one closed-loop client with its own connection.
type loadClient struct {
	rig    *serveRig
	http   *http.Client
	id     int64 // 1..clients
	stride int64 // number of clients
	fresh  int64 // fresh seeds drawn so far
}

func newLoadClient(r *serveRig, i, clients int) *loadClient {
	return &loadClient{rig: r, http: newClient(), id: int64(i + 1), stride: int64(clients)}
}

// freshSeed returns a seed no other request of the run uses: the workload
// seed plus id + stride*k for this client's k-th draw.
func (c *loadClient) freshSeed() int64 {
	c.fresh++
	return c.rig.seed + c.id + c.stride*c.fresh
}

// cycle returns how many operations one cycle of a class holds: one per
// warm key, per (miss sweep, engine) pair, or per circuit.
func (r *serveRig) cycle(class string) int {
	switch class {
	case "hit":
		return len(r.warm)
	case "miss", "coalesce":
		return len(missSweeps) * len(arch.EngineNames())
	}
	return len(r.bodies)
}

// requests returns the requests of the k-th operation of a class's cycle.
func (c *loadClient) requests(class string, k int) []sweepReq {
	r := c.rig
	switch class {
	case "hit":
		q := r.warm[k]
		q.seed = r.seed
		return []sweepReq{q}
	case "miss", "coalesce":
		engines := arch.EngineNames()
		name, engine := missSweeps[k/len(engines)], engines[k%len(engines)]
		q := sweepReq{sweep: name, engine: engine, seed: c.freshSeed(), key: name + "@" + engine}
		if class == "miss" {
			return []sweepReq{q}
		}
		a := q
		a.async = true
		return []sweepReq{a, q}
	}
	b := r.bodies[k]
	q := sweepReq{sweep: "circuit", engine: arch.EngineAnalytic, seed: r.seed, circuit: b.text, key: b.key()}
	if class == "circuit-miss" {
		q.seed = c.freshSeed()
	}
	return []sweepReq{q}
}

// do sends one operation and times it from sending the timed request to
// reading the last byte of its body. A coalesce operation is timed on its
// synchronous half.
func (c *loadClient) do(ctx context.Context, qs []sweepReq) (opTime, error) {
	var op opTime
	for _, q := range qs {
		op.start = time.Now()
		if err := c.rig.send(ctx, c.http, q); err != nil {
			return op, err
		}
	}
	op.end = time.Now()
	return op, nil
}

// dealer deals the operations of one round to its clients: whole cycles
// of the class's operations, each cycle in a seeded random order, until
// roundLen has passed since the round began; or limit operations in all
// when limit > 0. Every round therefore holds the class's operations in
// the same proportions, and seeds differ only in their order.
type dealer struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int // operations per cycle
	left  []int
	start time.Time
	limit int
	dealt int
}

// next returns the index of the next operation in the class's cycle, or
// false when the round is over.
func (d *dealer) next() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.limit > 0 && d.dealt == d.limit {
		return 0, false
	}
	if len(d.left) == 0 {
		if d.limit <= 0 && time.Since(d.start) >= roundLen {
			return 0, false
		}
		d.left = d.rng.Perm(d.n)
	}
	k := d.left[0]
	d.left = d.left[1:]
	d.dealt++
	return k, true
}

// clientRound is what one client sent in one round.
type clientRound struct {
	attempted, failed int
	ops               []opTime // the operations that succeeded
	err               error
}

// round sends the operations d deals, each when the previous one
// completes.
func (c *loadClient) round(ctx context.Context, class string, d *dealer) clientRound {
	var out clientRound
	for ctx.Err() == nil {
		k, ok := d.next()
		if !ok {
			break
		}
		out.attempted++
		op, err := c.do(ctx, c.requests(class, k))
		if err != nil {
			out.failed++
			if out.err == nil {
				out.err = err
			}
			continue
		}
		out.ops = append(out.ops, op)
	}
	return out
}

// load runs the closed loop in rounds. A round runs one class on every
// client; the classes take turns in a seeded order that runs each once
// per turn. A round starts while less than half a mean round remains of
// the window, so that the window is kept on average; when maxOps > 0, one
// round of each class runs instead, of maxOps operations in all.
func (r *serveRig) load(ctx context.Context, clients int, window time.Duration, maxOps int) (*serveResult, error) {
	lcs := make([]*loadClient, clients)
	for i := range lcs {
		lcs[i] = newLoadClient(r, i, clients)
		defer lcs[i].http.CloseIdleConnections()
	}
	limit := 0
	if maxOps > 0 {
		limit = max(1, maxOps/len(serveClasses))
	}
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0))
	res := &serveResult{classMS: make(map[string][]float64)}
	start := time.Now()
	var turn []int
	for rounds := 0; ; rounds++ {
		if maxOps > 0 {
			if rounds == len(serveClasses) {
				return res, nil
			}
		} else if rounds > 0 && time.Since(start).Seconds()*float64(2*rounds+1)/float64(2*rounds) >= window.Seconds() {
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(turn) == 0 {
			turn = rng.Perm(len(serveClasses))
		}
		class := serveClasses[turn[0]]
		turn = turn[1:]
		d := &dealer{rng: rng, n: r.cycle(class), start: time.Now(), limit: limit}
		if err := r.round(ctx, lcs, class, d, res); err != nil {
			return nil, err
		}
	}
}

// round runs one round of a class on every client and records it in res
// as one segment.
func (r *serveRig) round(ctx context.Context, lcs []*loadClient, class string, d *dealer, res *serveResult) error {
	cpu0, err := cpuSeconds()
	if err != nil {
		return err
	}
	seg := segment{class: class, start: d.start}
	outs := make([]clientRound, len(lcs))
	var wg sync.WaitGroup
	for i, c := range lcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = c.round(ctx, class, d)
		}()
	}
	wg.Wait()
	seg.end = time.Now()
	cpu1, err := cpuSeconds()
	if err != nil {
		return err
	}
	seg.cpu = cpu1 - cpu0
	for _, o := range outs {
		res.attempted += o.attempted
		res.failed += o.failed
		if res.firstErr == nil {
			res.firstErr = o.err
		}
		seg.ops = append(seg.ops, o.ops...)
		for _, op := range o.ops {
			res.classMS[class] = append(res.classMS[class], 1000*op.seconds())
		}
	}
	res.segs = append(res.segs, seg)
	return nil
}

// scrape reads the server's /metrics through its listener.
func (r *serveRig) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.ts.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, err
	}
	return registryCounts(fams), nil
}

// serveLayers reports the serve-mix per-layer metrics: per-class client
// latency and the server's own counters over the window.
func serveLayers(res *serveResult, before, after map[string]float64, m map[string]float64) {
	for _, c := range serveClasses {
		m["http."+c+"_ms_p50"] = median(res.classMS[c])
	}
	d := func(k string) float64 { return after[k] - before[k] }
	m["jobs.queue_wait_s_mean"] = ratio(d("queue_wait_sum"), d("queue_wait_count"))
	m["jobs.run_s_mean"] = ratio(d("run_sum"), d("run_count"))
	m["jobs.result_cache_hit_ratio"] = ratio(d("result_cache_hits"), d("result_cache_hits")+d("result_cache_misses"))
	m["jobs.coalesced"] = d("coalesced")
	m["http.server_s_mean"] = ratio(d("http_server_sum"), d("http_server_count"))
	n := float64(res.attempted)
	m["explore.points"] = ratio(d("points"), n)
	for _, kind := range []string{"machine", "plan", "compiled"} {
		h, ms := d("evalcache_hits_"+kind), d("evalcache_misses_"+kind)
		m["evalcache."+kind+"_hit_ratio"] = ratio(h, h+ms)
	}
}

// circuitCosts times, from outside the server, the work every circuit
// request repeats before its cache lookup: parsing the body and planning
// the circuit. It returns the mean over the bodies of each one's median
// per-call time, in ms.
func circuitCosts(bodies []circuitBody) (parseMS, planMS float64, err error) {
	const reps = 15
	var parse, plan []float64
	for _, b := range bodies {
		var ps, pl []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			c, err := circuit.ParseString(b.text)
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			if _, err := explore.CircuitExperiment("request", c); err != nil {
				return 0, 0, err
			}
			ps = append(ps, float64(t1.Sub(t0).Nanoseconds())/1e6)
			pl = append(pl, float64(time.Since(t1).Nanoseconds())/1e6)
		}
		parse = append(parse, median(ps))
		plan = append(plan, median(pl))
	}
	return mean(parse), mean(plan), nil
}
