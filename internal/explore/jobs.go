package explore

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/phys"
)

// This file is the job subsystem behind `cqla serve`: a content-addressed
// result cache, a job manager with a bounded global evaluation semaphore,
// and in-flight coalescing. Sweep output is a pure function of
// (sweep, phys, seed, engine, circuit, schema version) — parallelism only
// changes wall-clock time, never bytes — so identical requests share one
// evaluation and repeated ones are served from memory.

// ErrShuttingDown is returned by Manager.Submit once Shutdown has begun.
var ErrShuttingDown = errors.New("explore: job manager is shutting down")

// JobState is the lifecycle phase of a submitted job.
type JobState string

const (
	// JobQueued: admitted, waiting for an evaluation slot.
	JobQueued JobState = "queued"
	// JobRunning: holding an evaluation slot, points in flight.
	JobRunning JobState = "running"
	// JobDone: finished; the report document is available.
	JobDone JobState = "done"
	// JobFailed: the evaluation errored; Error carries the cause.
	JobFailed JobState = "failed"
)

// JobSpec identifies one run-to-completion sweep evaluation.
type JobSpec struct {
	// Sweep is the experiment name. Submit rejects a build whose
	// experiment has another name, so the cache key cannot disagree with
	// the evaluator.
	Sweep string
	// Phys is the technology point the sweep runs under.
	Phys phys.Params
	// Seed is the base seed.
	Seed int64
	// Engine is the arch evaluation engine (canonicalized by Submit).
	Engine string
	// Parallel is the runner's worker count. It is deliberately excluded
	// from Key: output is byte-identical at any parallelism.
	Parallel int
	// Circuit is the text-format source of a custom-circuit run, empty for
	// registry sweeps. It is part of Key: two different circuits share the
	// sweep name "circuit" and must never alias in the result cache.
	Circuit string
}

// Key returns the spec's content address: a digest of every input the
// report document depends on, including the document schema version so a
// schema bump can never serve stale documents. The fields stream into the
// hash ("v<schema>", then sweep, phys, seed, engine and circuit, 0x1f
// between each), so hashing a large circuit allocates no copy of it.
func (s JobSpec) Key() string {
	h := sha256.New()
	var buf [512]byte
	b := strconv.AppendInt(append(buf[:0], 'v'), int64(SchemaVersion), 10)
	b = append(append(b, '\x1f'), s.Sweep...)
	b = append(append(b, '\x1f'), s.Phys.Name...)
	b = strconv.AppendInt(append(b, '\x1f'), s.Seed, 10)
	b = append(append(b, '\x1f'), s.Engine...)
	h.Write(append(b, '\x1f'))
	writeString(h, s.Circuit)
	return hex.EncodeToString(h.Sum(buf[:0])[:12])
}

// writeString writes s to h through a stack buffer, so hashing a large
// string allocates no copy of it.
func writeString(h hash.Hash, s string) {
	var buf [512]byte
	for s != "" {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
}

// Job is one admitted sweep evaluation. Every accessor is safe for
// concurrent use.
type Job struct {
	// ID is the manager-unique job identifier.
	ID string
	// Spec is the canonicalized request the job evaluates.
	Spec JobSpec
	// Key is Spec.Key(), the cache address of the result.
	Key string

	finished chan struct{} // closed once state is done or failed
	created  time.Time     // when Submit admitted the job

	// published is set, under Manager.mu, once the job's outcome is
	// published: the record then counts toward Manager.finished and may be
	// trimmed.
	published bool

	mu      sync.Mutex
	state   JobState
	started time.Time // when the job won an evaluation slot
	done    int
	total   int
	doc     []byte
	err     error
}

// JobStatus is a point-in-time snapshot of a job, shaped for the API.
type JobStatus struct {
	ID     string   `json:"job_id"`
	Sweep  string   `json:"sweep"`
	Phys   string   `json:"phys"`
	Seed   int64    `json:"seed"`
	Engine string   `json:"engine"`
	Key    string   `json:"key"`
	State  JobState `json:"state"`
	Done   int      `json:"done"`
	Total  int      `json:"total"`
	Error  string   `json:"error,omitempty"`
}

// Status returns a consistent snapshot of the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:     j.ID,
		Sweep:  j.Spec.Sweep,
		Phys:   j.Spec.Phys.Name,
		Seed:   j.Spec.Seed,
		Engine: j.Spec.Engine,
		Key:    j.Key,
		State:  j.state,
		Done:   j.done,
		Total:  j.total,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Wait blocks until the job finishes or ctx is done, then returns the
// report document (or the job's failure, or ctx's error). The returned
// bytes are shared and must not be modified.
func (j *Job) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-j.finished:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return j.Document()
}

// Document returns the finished report bytes, the failure of a failed
// job, or an error naming the non-terminal state.
func (j *Job) Document() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobDone:
		return j.doc, nil
	case JobFailed:
		return nil, j.err
	}
	return nil, fmt.Errorf("explore: job %s is %s, not done", j.ID, j.state)
}

// markRunning moves the job from queued to running and records how long
// it waited for its evaluation slot.
func (m *Manager) markRunning(j *Job) {
	j.mu.Lock()
	j.state = JobRunning
	j.started = obs.Now()
	wait := j.started.Sub(j.created)
	j.mu.Unlock()
	m.met.queued.Dec()
	m.met.running.Inc()
	m.met.queueWait.Observe(wait.Seconds())
	m.log.Info("job running", "job", j.ID, "sweep", j.Spec.Sweep, "queue_wait_s", wait.Seconds())
}

func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	j.mu.Unlock()
}

// managerConfig carries the tunables NewServer resolves for its Manager.
type managerConfig struct {
	maxEval    int
	cacheBytes int64
	obs        *obs.Registry
	log        *slog.Logger
	pprof      bool
}

// newManagerConfig applies opts to the defaults: one evaluation at a
// time, a 64 MiB result cache, no metrics, the no-op logger.
func newManagerConfig(opts []ManagerOption) managerConfig {
	cfg := managerConfig{maxEval: 1, cacheBytes: 64 << 20, log: obs.NopLogger()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// ManagerOption configures a Manager (and, through NewServer, a Server).
type ManagerOption func(*managerConfig)

// WithMaxEvaluations bounds how many sweep evaluations run at once; the
// default is 1, so concurrent requests queue behind one full-parallelism
// worker pool instead of multiplying pools. Values below 1 clamp to 1.
func WithMaxEvaluations(n int) ManagerOption {
	return func(c *managerConfig) {
		if n < 1 {
			n = 1
		}
		c.maxEval = n
	}
}

// WithCacheBytes sets the result cache's LRU byte budget (default 64 MiB).
// Zero or negative disables caching; documents larger than the budget are
// never cached.
func WithCacheBytes(n int64) ManagerOption {
	return func(c *managerConfig) { c.cacheBytes = n }
}

// WithObservability attaches a metrics registry. The manager records job
// lifecycle series (cqla_jobs_*, cqla_job_*_seconds, cqla_result_cache_*)
// and threads the registry into every sweep evaluation; through NewServer
// the same registry backs GET /metrics. Nil (the default) disables all of
// it at zero cost.
func WithObservability(reg *obs.Registry) ManagerOption {
	return func(c *managerConfig) { c.obs = reg }
}

// WithLogger sets the structured logger for job lifecycle and HTTP access
// logs. Nil restores the default no-op logger.
func WithLogger(l *slog.Logger) ManagerOption {
	return func(c *managerConfig) {
		if l == nil {
			l = obs.NopLogger()
		}
		c.log = l
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the server built
// from these options. Off by default: the profile endpoints can stall the
// process and belong behind a flag.
func WithPprof(enabled bool) ManagerOption {
	return func(c *managerConfig) { c.pprof = enabled }
}

// jobMetrics is the manager's resolved instrument set. The zero value —
// every handle nil — is the disabled state; each method call on a nil
// handle is a no-op, so the lifecycle code below carries no branches.
type jobMetrics struct {
	submitted       *obs.Counter
	completedDone   *obs.Counter
	completedFailed *obs.Counter
	coalesced       *obs.Counter
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	queued          *obs.Gauge
	running         *obs.Gauge
	queueWait       *obs.Histogram
	runDur          *obs.Histogram
}

func newJobMetrics(reg *obs.Registry) jobMetrics {
	if reg == nil {
		return jobMetrics{}
	}
	completed := reg.CounterVec("cqla_jobs_completed_total",
		"Jobs finished, by terminal state.", "state")
	return jobMetrics{
		submitted:       reg.Counter("cqla_jobs_submitted_total", "Job submissions admitted (including coalesced and cache-served ones)."),
		completedDone:   completed.With(string(JobDone)),
		completedFailed: completed.With(string(JobFailed)),
		coalesced:       reg.Counter("cqla_jobs_coalesced_total", "Submissions attached to an already-running job with the same key."),
		cacheHits:       reg.Counter("cqla_result_cache_hits_total", "Submissions served from the result cache without evaluating."),
		cacheMisses:     reg.Counter("cqla_result_cache_misses_total", "Submissions that started a new evaluation."),
		queued:          reg.Gauge("cqla_jobs_queued", "Jobs waiting for an evaluation slot."),
		running:         reg.Gauge("cqla_jobs_running", "Jobs holding an evaluation slot."),
		queueWait:       reg.Histogram("cqla_job_queue_wait_seconds", "Time from admission to winning an evaluation slot.", nil),
		runDur:          reg.Histogram("cqla_job_run_seconds", "Evaluation wall-clock time of jobs that reached running.", nil),
	}
}

// Manager runs sweep evaluations as jobs: admitted requests coalesce by
// content address, queue on a global evaluation semaphore, publish
// progress, and land their documents in an LRU result cache. Every job
// reads its kernel plans from one bounded plan cache the manager keeps
// for its whole life (see evalCache), so a job that misses the result
// cache skips the circuit generation, DAG builds and list scheduling that
// earlier jobs already did.
type Manager struct {
	ctx        context.Context
	cancelJobs context.CancelFunc
	sem        chan struct{}
	cache      *docCache
	plans      *evalCache    // kernel plans shared by every job's sweep
	reg        *obs.Registry // threaded into every sweep evaluation
	met        jobMetrics
	log        *slog.Logger

	wg sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	seq      int
	jobs     map[string]*Job
	order    []*Job // creation order; oldest first
	finished int    // records in order whose outcome is published
	inflight map[string]*Job
}

// newManager returns a Manager ready to accept jobs.
func newManager(cfg managerConfig) *Manager {
	// Jobs outlive the requests that submit them: the async lifecycle's
	// whole point is that a client can disconnect and poll later, so the
	// manager roots its own context and cancels it on Shutdown.
	//lint:ignore-cqla ctxflow jobs run detached from request contexts by design; Shutdown cancels this root
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.log == nil {
		cfg.log = obs.NopLogger()
	}
	var planHeld *obs.Gauge
	if cfg.obs != nil {
		planHeld = cfg.obs.Gauge("cqla_plan_cache_instructions",
			"Instructions, plus a fixed overhead per plan, that the server's plan cache retains between jobs.")
	}
	return &Manager{
		ctx:        ctx,
		cancelJobs: cancel,
		sem:        make(chan struct{}, cfg.maxEval),
		cache:      newDocCache(cfg.cacheBytes),
		plans:      newEvalCache(planBudget, planHeld),
		reg:        cfg.obs,
		met:        newJobMetrics(cfg.obs),
		log:        cfg.log,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
	}
}

// Submit admits one evaluation under spec, whose Sweep must already name
// the experiment. The cache key is resolved before anything is built: a
// key already in flight attaches to the running job (coalescing), and a
// key whose document is cached returns an already-done job — the bool
// reports that cache hit. Neither calls build. Only a miss calls build,
// outside the manager's lock, then re-checks both tables, so a request
// that raced an identical one while building still coalesces. A build
// error is returned as is and nothing is cached or queued for it; a built
// experiment whose Name differs from spec.Sweep is rejected, so the cache
// key cannot disagree with the evaluator. Jobs run detached from any
// request context: they are canceled only by Shutdown.
func (m *Manager) Submit(spec JobSpec, build func() (*Experiment, error)) (*Job, bool, error) {
	if spec.Sweep == "" || build == nil {
		return nil, false, fmt.Errorf("explore: Submit needs a sweep name and a build function")
	}
	engine, err := arch.NormalizeEngine(spec.Engine)
	if err != nil {
		return nil, false, err
	}
	spec.Engine = engine
	key := spec.Key()

	m.mu.Lock()
	j, hit, err := m.lookupLocked(spec, key)
	m.mu.Unlock()
	if j != nil || err != nil {
		return j, hit, err
	}
	exp, err := build()
	if err != nil {
		return nil, false, err
	}
	if exp == nil || exp.Name != spec.Sweep {
		return nil, false, fmt.Errorf("explore: Submit of sweep %q built a different experiment", spec.Sweep)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if j, hit, err := m.lookupLocked(spec, key); j != nil || err != nil {
		return j, hit, err
	}
	m.met.submitted.Inc()
	m.met.cacheMisses.Inc()
	j = m.newJobLocked(spec, key, exp.Size())
	m.inflight[key] = j
	m.met.queued.Inc()
	m.wg.Add(1)
	go m.run(j, exp)
	m.log.Info("job queued", "job", j.ID, "sweep", spec.Sweep, "engine", spec.Engine,
		"phys", spec.Phys.Name, "seed", spec.Seed, "key", key)
	return j, false, nil
}

// lookupLocked answers a submission from the in-flight table or the
// result cache, or returns a nil job on a miss; m.mu must be held.
func (m *Manager) lookupLocked(spec JobSpec, key string) (*Job, bool, error) {
	if m.closed {
		return nil, false, ErrShuttingDown
	}
	if j := m.inflight[key]; j != nil {
		m.met.submitted.Inc()
		m.met.coalesced.Inc()
		m.log.Debug("job coalesced", "job", j.ID, "sweep", spec.Sweep, "key", key)
		return j, false, nil
	}
	doc, total, ok := m.cache.get(key)
	if !ok {
		return nil, false, nil
	}
	m.met.submitted.Inc()
	m.met.cacheHits.Inc()
	j := m.newJobLocked(spec, key, total)
	j.state = JobDone
	j.done = total
	j.doc = doc
	close(j.finished)
	m.publishLocked(j)
	m.log.Debug("job served from cache", "job", j.ID, "sweep", spec.Sweep, "key", key)
	return j, true, nil
}

// newJobLocked allocates and registers a job; m.mu must be held.
func (m *Manager) newJobLocked(spec JobSpec, key string, total int) *Job {
	m.seq++
	j := &Job{
		ID:       fmt.Sprintf("job-%06d", m.seq),
		Spec:     spec,
		Key:      key,
		finished: make(chan struct{}),
		created:  obs.Now(),
		state:    JobQueued,
		total:    total,
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	return j
}

// run executes one job: acquire an evaluation slot, run the sweep with
// progress wired into the job, emit the document, publish the result.
func (m *Manager) run(j *Job, exp *Experiment) {
	defer m.wg.Done()
	select {
	case m.sem <- struct{}{}:
	case <-m.ctx.Done():
		m.finish(j, nil, m.ctx.Err())
		return
	}
	defer func() { <-m.sem }()
	m.markRunning(j)
	pts, err := Run(m.ctx, exp, Options{
		Phys:     j.Spec.Phys,
		Parallel: j.Spec.Parallel,
		Seed:     j.Spec.Seed,
		Engine:   j.Spec.Engine,
		Progress: j.setProgress,
		Obs:      m.reg,
		plans:    m.plans,
	})
	if err != nil {
		m.finish(j, nil, err)
		return
	}
	rep := &Report{Experiment: exp, Phys: j.Spec.Phys.Name, Seed: j.Spec.Seed, Engine: j.Spec.Engine, Points: pts}
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		m.finish(j, nil, err)
		return
	}
	m.finish(j, buf.Bytes(), nil)
}

// finish publishes the job's outcome. The cache and in-flight table are
// updated before finished is closed, so a waiter that observed completion
// can never race ahead of the cache and recompute.
func (m *Manager) finish(j *Job, doc []byte, err error) {
	j.mu.Lock()
	prev := j.state
	var ran time.Duration
	if prev == JobRunning {
		ran = obs.Since(j.started)
	}
	if err != nil {
		j.state = JobFailed
		j.err = err
	} else {
		j.state = JobDone
		j.doc = doc
		j.done = j.total
	}
	total := j.total
	j.mu.Unlock()
	// A job that never won its slot (shutdown while queued) was still
	// counted in the queued gauge; decrement whichever phase it left so the
	// gauges drain to zero with the manager.
	switch prev {
	case JobQueued:
		m.met.queued.Dec()
	case JobRunning:
		m.met.running.Dec()
		m.met.runDur.Observe(ran.Seconds())
	}
	if err != nil {
		m.met.completedFailed.Inc()
		m.log.Warn("job failed", "job", j.ID, "sweep", j.Spec.Sweep, "run_s", ran.Seconds(), "error", err)
	} else {
		m.met.completedDone.Inc()
		m.log.Info("job done", "job", j.ID, "sweep", j.Spec.Sweep, "run_s", ran.Seconds(), "bytes", len(doc))
	}
	if err == nil {
		m.cache.put(j.Key, doc, total)
	}
	m.mu.Lock()
	delete(m.inflight, j.Key) // failed jobs drop out too: the next request retries
	m.publishLocked(j)
	m.mu.Unlock()
	close(j.finished)
}

// Job returns the identified job, if it is still retained.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns a snapshot of every retained job, newest first.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for i := len(m.order) - 1; i >= 0; i-- {
		out = append(out, m.order[i].Status())
	}
	return out
}

// jobHistory caps how many finished job records a Manager retains for GET
// /v1/jobs. In-flight jobs are never evicted.
const jobHistory = 256

// publishLocked counts j's record as finished and evicts the oldest
// finished records beyond jobHistory; m.mu must be held. Jobs still queued
// or running always survive. Under the cap it returns without walking the
// records, and over it the walk stops at the last eviction.
func (m *Manager) publishLocked(j *Job) {
	j.published = true
	m.finished++
	if m.finished <= jobHistory {
		return
	}
	keep := m.order[:0]
	for i, o := range m.order {
		if m.finished <= jobHistory {
			keep = append(keep, m.order[i:]...)
			break
		}
		if o.published {
			delete(m.jobs, o.ID)
			m.finished--
			continue
		}
		keep = append(keep, o)
	}
	clear(m.order[len(keep):]) // drop evicted records for the collector
	m.order = keep
}

// Shutdown stops accepting new jobs and drains the admitted ones: queued
// and running jobs keep evaluating until they finish or ctx expires, at
// which point the stragglers are canceled and marked failed. It returns
// nil on a clean drain, ctx's error otherwise.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.cancelJobs()
		return nil
	case <-ctx.Done():
		m.cancelJobs()
		<-done
		return ctx.Err()
	}
}

// docCache is the content-addressed result cache: finished report
// documents keyed by JobSpec.Key under an LRU byte budget, each with its
// sweep's point count, so a hit reports its job's total without the
// experiment.
type docCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used
	index  map[string]*list.Element
}

type docEntry struct {
	key   string
	doc   []byte
	total int
}

func newDocCache(budget int64) *docCache {
	return &docCache{budget: budget, order: list.New(), index: make(map[string]*list.Element)}
}

// get returns the cached document and its point count and refreshes its
// recency. The bytes are shared and must not be modified.
func (c *docCache) get(key string) ([]byte, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[key]
	if !ok {
		return nil, 0, false
	}
	c.order.MoveToFront(e)
	ent := e.Value.(*docEntry)
	return ent.doc, ent.total, true
}

// put inserts the document, evicting least-recently-used entries until
// the budget holds. Documents larger than the whole budget are not cached
// at all — one oversized sweep must not flush every other result.
func (c *docCache) put(key string, doc []byte, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(len(doc)) > c.budget {
		return
	}
	if e, ok := c.index[key]; ok {
		c.order.MoveToFront(e) // racing jobs computed the same bytes; keep the first
		return
	}
	c.index[key] = c.order.PushFront(&docEntry{key: key, doc: doc, total: total})
	c.used += int64(len(doc))
	for c.used > c.budget {
		back := c.order.Back()
		ent := back.Value.(*docEntry)
		c.order.Remove(back)
		delete(c.index, ent.key)
		c.used -= int64(len(ent.doc))
	}
}
