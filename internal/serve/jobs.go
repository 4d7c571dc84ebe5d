package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/store"
)

// State is a job's lifecycle position. Transitions are monotone:
// Queued -> Running -> (Done | Failed | Canceled), with the extra edge
// Queued -> Canceled for jobs canceled before a worker picks them up.
type State int

// The job states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
	numStates
)

// String names the state as the API reports it.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	}
	return "invalid"
}

// Submission errors.
var (
	// ErrQueueFull is returned when the bounded admission queue is full; the
	// HTTP layer translates it to 429 + Retry-After (load shedding, never
	// unbounded buffering).
	ErrQueueFull = errors.New("job queue full")
	// ErrClosed is returned once shutdown has begun; admission stops
	// immediately while accepted jobs drain.
	ErrClosed = errors.New("server is draining; not accepting jobs")
	// ErrTenantQuota is returned when a tenant already has its quota of
	// admitted jobs in flight; also a 429, but scoped to the tenant — the
	// shared queue may be wide open.
	ErrTenantQuota = errors.New("tenant quota exceeded")
)

// Outcome says how a submission was satisfied.
type Outcome int

// Submission outcomes.
const (
	// OutcomeAccepted: a new job was created and enqueued.
	OutcomeAccepted Outcome = iota
	// OutcomeCacheHit: an identical spec already completed; the result is
	// served from the content-addressed cache without running anything.
	OutcomeCacheHit
	// OutcomeDeduplicated: an identical spec is queued or running; the
	// submission attaches to that in-flight job (one simulation serves all).
	OutcomeDeduplicated
	// OutcomeStoreHit: the spec missed the in-memory cache but its result
	// was found in the persistent store (this daemon's earlier life, or a
	// fleet peer sharing the directory); served without running anything.
	OutcomeStoreHit
	// OutcomeAnalytic: an analytic-fidelity spec was answered inline by the
	// predictive model — no queue, no worker, the result is available in
	// the submit response (and cached/stored like any computed result).
	OutcomeAnalytic
)

// String names the outcome as the API reports it.
func (o Outcome) String() string {
	switch o {
	case OutcomeCacheHit:
		return "cache_hit"
	case OutcomeDeduplicated:
		return "deduplicated"
	case OutcomeStoreHit:
		return "store_hit"
	case OutcomeAnalytic:
		return "analytic"
	}
	return "accepted"
}

// Job is one submitted experiment. Its identity IS its content address:
// the ID is derived from the SHA-256 of the canonical spec encoding, which
// is what makes concurrent duplicate submissions collapse onto one
// execution and repeated submissions hit the cache.
type Job struct {
	ID       string
	Spec     exp.Spec // normalized
	StoreKey string   // full hex SHA-256 of the canonical spec: the persistent-store address
	Tenant   string   // admission-quota principal (X-Tenant header; "" = anonymous)

	mu        sync.Mutex
	state     State
	errMsg    string
	result    []byte // canonical Result envelope bytes (StateDone only)
	points    int64  // completed sweep tasks
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	subs      map[chan struct{}]struct{}
	done      chan struct{}

	// Cache bookkeeping, guarded by the manager's mutex.
	lruElem *list.Element
	cost    int64
}

func newJob(id string, spec exp.Spec) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		submitted: time.Now(),
		subs:      make(map[chan struct{}]struct{}),
		done:      make(chan struct{}),
	}
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the canonical result bytes and error message; result is
// non-nil only in StateDone.
func (j *Job) Result() (result []byte, errMsg string, state State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.errMsg, j.state
}

// PointsDone reports completed sweep tasks.
func (j *Job) PointsDone() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.points
}

// bumpProgress records one completed sweep task and pokes subscribers.
// It is the job's exp.Options.Progress hook, called concurrently from
// sweep pool workers.
func (j *Job) bumpProgress() {
	j.mu.Lock()
	j.points++
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a pending poke
		}
	}
	j.mu.Unlock()
}

// subscribe registers a progress listener; the returned channel receives a
// poke (coalesced) after each completed sweep task.
func (j *Job) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *Job) unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// markRunning moves Queued -> Running; false if the job was canceled while
// queued (the worker then skips it).
func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// requestCancel cancels the job: queued jobs run beforeFinish and finish
// as Canceled on the spot; running jobs get their context canceled (the
// sweep stops between points and the worker records the terminal state).
// Terminal jobs are untouched. Reports whether the request had any effect.
func (j *Job) requestCancel(reason string, beforeFinish func()) bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		beforeFinish()
		j.finishLocked(StateCanceled, nil, "canceled while queued: "+reason)
		j.mu.Unlock()
		return true
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
	j.mu.Unlock()
	return false
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, result []byte, errMsg string) {
	j.mu.Lock()
	j.finishLocked(state, result, errMsg)
	j.mu.Unlock()
}

func (j *Job) finishLocked(state State, result []byte, errMsg string) {
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	close(j.done)
}

// jobKeys derives the content addresses from one hash: the short job ID
// ("j" + first 16 hex chars of the canonical spec's SHA-256) the API uses,
// and the full hex digest the persistent store files results under.
func jobKeys(canonical []byte) (id, storeKey string) {
	sum := sha256.Sum256(canonical)
	storeKey = hex.EncodeToString(sum[:])
	return "j" + storeKey[:store.PrefixLen], storeKey
}

// manager owns the bounded job queue, the worker pool, and the
// content-addressed result cache (LRU by bytes). One mutex guards the job
// table and cache; per-job state has its own lock (lock order: manager
// before job, never the reverse).
type manager struct {
	cfg        Config
	met        *metrics
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job // content address -> job (live and cached)
	lru      *list.List      // terminal jobs, most recently used at front
	lruBytes int64
	tenants  map[string]int // tenant -> admitted jobs in flight (queued+running)

	// cv accumulates analytic-vs-sim error per config-space region, fed by
	// completed crossval jobs and by background refinement comparisons.
	cv *crossvalTracker

	// runs shares one-host simulations across every job of this daemon
	// life: point specs of one sweep need the same isolated baselines.
	runs *exp.RunCache

	queue chan *Job
	wg    sync.WaitGroup

	// beforeRun, when set (tests only), runs on the worker goroutine after
	// the job turns Running, inside the job's panic isolation, right before
	// the simulation.
	beforeRun func(ctx context.Context, j *Job)
}

func newManager(cfg Config, met *metrics) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &manager{
		cfg:        cfg,
		met:        met,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		lru:        list.New(),
		tenants:    make(map[string]int),
		cv:         newCrossvalTracker(),
		runs:       exp.NewRunCache(),
		queue:      make(chan *Job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit admits a spec: content-address it, serve it from the in-memory
// cache, an in-flight duplicate, or the persistent store if possible,
// otherwise enqueue a new job — or shed load if the bounded queue is full
// or the tenant is over quota. The spec must already be normalized and
// validated (the HTTP layer does both).
func (m *manager) Submit(spec exp.Spec, canonical []byte, tenant string) (*Job, Outcome, error) {
	id, storeKey := jobKeys(canonical)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, OutcomeAccepted, ErrClosed
	}
	if j, outcome := m.cachedLocked(id, storeKey, spec); j != nil {
		return j, outcome, nil
	}
	if q := m.cfg.TenantQuota; q > 0 && m.tenants[tenant] >= q {
		// Per-tenant shed happens only on the path that would consume a
		// queue slot: cache, dedup, and store hits above cost the daemon
		// nothing, so they are never charged against the quota.
		return nil, OutcomeAccepted, ErrTenantQuota
	}
	j := newJob(id, spec)
	j.StoreKey = storeKey
	j.Tenant = tenant
	select {
	case m.queue <- j:
		m.jobs[id] = j
		m.tenants[tenant]++
		m.met.cacheMisses.Add(1)
		return j, OutcomeAccepted, nil
	default:
		// The HTTP layer counts the rejection if it actually sheds load:
		// it retries the admission once first, and a retry that lands is
		// not a shed.
		return nil, OutcomeAccepted, ErrQueueFull
	}
}

// cachedLocked answers a content address without computing: a completed
// job is a cache hit, a queued or running one a dedup, and a result in the
// persistent store — filed by an earlier life of this daemon, or by a fleet
// peer sharing the directory, and as good as a local hit by determinism —
// is revived as a done job that enters the LRU like a fresh one. A failed
// or canceled record is dropped so the caller computes afresh. A nil job
// means no answer.
func (m *manager) cachedLocked(id, storeKey string, spec exp.Spec) (*Job, Outcome) {
	if j, ok := m.jobs[id]; ok {
		switch j.State() {
		case StateDone:
			m.touchLocked(j)
			m.met.cacheHits.Add(1)
			return j, OutcomeCacheHit
		case StateQueued, StateRunning:
			m.met.dedupInflight.Add(1)
			return j, OutcomeDeduplicated
		}
		m.removeLocked(j)
	}
	if st := m.cfg.Store; st != nil {
		if result, ok := st.Get(storeKey); ok {
			m.met.storeHits.Add(1)
			return m.fileDoneLocked(id, storeKey, spec, result), OutcomeStoreHit
		}
	}
	return nil, OutcomeAccepted
}

// fileDoneLocked files a result computed or found without the queue as a
// done job at its content address.
func (m *manager) fileDoneLocked(id, storeKey string, spec exp.Spec, result []byte) *Job {
	j := newJob(id, spec)
	j.StoreKey = storeKey
	m.jobs[id] = j
	m.insertLocked(j, result)
	j.finish(StateDone, result, "")
	return j
}

// releaseTenantLocked returns a job's admission-quota slot. Only enqueued
// jobs hold one (cache, store, dedup and analytic answers never do), and an
// enqueued job turns terminal exactly once: in Cancel while still queued,
// or in run.
func (m *manager) releaseTenantLocked(j *Job) {
	if n := m.tenants[j.Tenant]; n <= 1 {
		delete(m.tenants, j.Tenant)
	} else {
		m.tenants[j.Tenant] = n - 1
	}
}

// Cancel forwards a cancellation request. A job canceled while still
// queued turns terminal right here, so its terminal side effects land
// here too, before the cancellation wakes anyone: its tenant-quota slot is
// freed, and it is filed in the LRU, so the record is accounted for and
// eventually evicted. The worker that later dequeues it skips it.
func (m *manager) Cancel(j *Job, reason string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.requestCancel(reason, func() {
		m.releaseTenantLocked(j)
		m.insertLocked(j, nil)
	})
}

// tenantInFlight reports a tenant's charged admission slots (tests).
func (m *manager) tenantInFlight(tenant string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[tenant]
}

// Get returns the job with this ID. A done result the LRU has evicted is
// revived from the persistent store, as a store hit at submit is, so a
// fetch that follows a 200 does not turn into a 404.
func (m *manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j
	}
	return m.storedLocked(id)
}

// storedLocked revives a stored result by job ID, or returns nil. The ID
// resolves to a store key in one index lookup, and the entry's spec must
// hash back to both, so a prefix collision is never served as this job.
func (m *manager) storedLocked(id string) *Job {
	prefix, ok := strings.CutPrefix(id, "j")
	st := m.cfg.Store
	if st == nil || !ok {
		return nil
	}
	storeKey, ok := st.KeyFor(prefix)
	if !ok {
		return nil
	}
	result, ok := st.Get(storeKey)
	if !ok {
		return nil
	}
	var env struct {
		Spec exp.Spec `json:"spec"`
	}
	if json.Unmarshal(result, &env) != nil {
		return nil
	}
	spec := env.Spec.Normalized()
	canonical, err := spec.Canonical()
	if err != nil {
		return nil
	}
	if gotID, gotKey := jobKeys(canonical); gotID != id || gotKey != storeKey {
		return nil
	}
	return m.fileDoneLocked(id, storeKey, spec, result)
}

// Jobs snapshots all live and cached jobs, most recently submitted first.
func (m *manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	return out
}

func (m *manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one job with panic isolation, per-job timeout, and progress
// accounting, then files the terminal result in the cache.
func (m *manager) run(j *Job) {
	ctx, cancel := context.WithTimeout(m.baseCtx, m.cfg.JobTimeout)
	defer cancel()
	if !j.markRunning(cancel) {
		return // canceled while queued: Cancel made it terminal
	}

	opt := exp.Defaults()
	opt.Parallelism = m.cfg.Parallelism
	opt.Audit = m.cfg.Audit
	opt.BaseCtx = ctx
	opt.Progress = j.bumpProgress
	opt.Runs = m.runs

	start := time.Now()
	var out []byte
	var runErr error
	// runner.Do gives panic isolation: a panic anywhere in the simulation
	// (including an audit violation under Config.Audit) surfaces as a
	// *runner.PanicError with the goroutine's stack instead of killing the
	// daemon. In coordinator mode the "simulation" is a fleet fan-out that
	// produces the same bytes (exp.MergePointResults byte-identity).
	poolErr := runner.Do(ctx, 1, func() {
		if h := m.beforeRun; h != nil {
			h(ctx, j)
		}
		if fl := m.cfg.Fleet; fl != nil {
			out, runErr = fl.RunSpecJSON(ctx, j.Spec, j.bumpProgress)
		} else {
			out, runErr = exp.RunSpecJSON(j.Spec, opt)
		}
	})
	wall := time.Since(start)

	var st State
	var msg string
	switch {
	case ctx.Err() != nil && (poolErr != nil || runErr != nil):
		// Cancellation (client, timeout, or shutdown deadline): RunSpecJSON
		// reports it as an error, and any panic the pool caught in that
		// window is just the context error re-raised between sweep points.
		st = StateCanceled
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			msg = fmt.Sprintf("canceled: exceeded job timeout %v", m.cfg.JobTimeout)
		default:
			msg = "canceled: " + ctx.Err().Error()
		}
	case poolErr != nil:
		st, msg = StateFailed, truncate(poolErr.Error(), 8<<10)
	case runErr != nil:
		st, msg = StateFailed, truncate(runErr.Error(), 8<<10)
	default:
		st = StateDone
	}

	// Every terminal side effect lands before finish flips the state and
	// wakes ?wait=true clients: a client that sees the job finish also sees
	// its store entry, its tenant slot free, its metrics and its crossval
	// points.
	if st == StateDone {
		m.writeThrough(j, out)
	}
	m.met.observe(st, wall)
	if st == StateDone {
		// Feed the Retry-After estimate (completed sim jobs only; analytic
		// answers never occupy a queue slot so they must not dilute it) and
		// the crossval tracker.
		m.met.noteJobDuration(wall)
		m.noteCrossvalJob(j.Spec, out)
	}
	m.mu.Lock()
	m.releaseTenantLocked(j) // admission-quota slot held from Submit until terminal
	m.insertLocked(j, out)
	m.mu.Unlock()
	j.finish(st, out, msg)
}

// noteCrossvalJob records a completed crossval experiment's points.
func (m *manager) noteCrossvalJob(spec exp.Spec, env []byte) {
	if spec.Experiment != "crossval" {
		return
	}
	cv, err := exp.DecodeCrossval(env)
	if err != nil {
		return
	}
	m.cv.add("crossval", cv.Points)
}

// noteCrossval compares an analytic envelope with its completed sim twin
// and records the per-point errors. Best-effort observability: structural
// mismatches are dropped, never surfaced to either job.
func (m *manager) noteCrossval(analyticEnv, simEnv []byte) {
	experiment, pts, err := exp.CrossvalFromEnvelopes(analyticEnv, simEnv)
	if err != nil || len(pts) == 0 {
		return
	}
	m.cv.add(experiment, pts)
}

// RunAnalytic is the analytic fast path: answer the spec inline — cache,
// then store, then the predictive model — without touching the queue, the
// worker pool, or the tenant quota (like cache hits, analytic answers cost
// the daemon microseconds, so they are never charged against admission).
// A fresh answer is written through to the store after the manager lock is
// released, so concurrent submissions never wait on its fsync.
func (m *manager) RunAnalytic(spec exp.Spec, canonical []byte) (*Job, Outcome, error) {
	start := time.Now()
	j, outcome, err := m.answerAnalytic(spec, canonical)
	if outcome != OutcomeAnalytic {
		return j, outcome, err
	}
	result, _, _ := j.Result()
	m.writeThrough(j, result)
	m.met.analyticServed.Add(1)
	m.met.analyticNanos.Add(time.Since(start).Nanoseconds())
	return j, outcome, nil
}

// answerAnalytic files RunAnalytic's answer under the manager lock, which
// is held across the model's computation: at microseconds per answer that
// is cheaper than handling the insert race between concurrent identical
// submissions.
func (m *manager) answerAnalytic(spec exp.Spec, canonical []byte) (*Job, Outcome, error) {
	id, storeKey := jobKeys(canonical)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, OutcomeAccepted, ErrClosed
	}
	// Analytic addresses never enqueue, so the cache answers a hit or
	// drops a stale failure.
	if j, outcome := m.cachedLocked(id, storeKey, spec); j != nil {
		return j, outcome, nil
	}
	out, err := exp.RunSpecJSON(spec, exp.Defaults())
	if err != nil {
		return nil, OutcomeAccepted, err
	}
	return m.fileDoneLocked(id, storeKey, spec, out), OutcomeAnalytic, nil
}

// writeThrough files a completed result in the persistent store (best
// effort: a full disk degrades the daemon to memory-only, it does not fail
// the job that just computed a perfectly good result).
func (m *manager) writeThrough(j *Job, result []byte) {
	st := m.cfg.Store
	if st == nil || j.StoreKey == "" {
		return
	}
	if err := st.Put(j.StoreKey, result); err != nil {
		m.met.storeWriteErrs.Add(1)
	}
}

// insertLocked files a terminal job in the LRU, once, and evicts
// over-budget entries (never the entry being inserted: a single oversized
// result is served once rather than thrashing). Zero-byte results still
// cost jobOverheadBytes.
func (m *manager) insertLocked(j *Job, result []byte) {
	j.cost = int64(len(result)) + jobOverheadBytes
	j.lruElem = m.lru.PushFront(j)
	m.lruBytes += j.cost
	for m.lruBytes > m.cfg.CacheBytes && m.lru.Len() > 1 {
		ev := m.lru.Back().Value.(*Job)
		if ev == j {
			break
		}
		m.removeLocked(ev)
		m.met.evictions.Add(1)
	}
}

// jobOverheadBytes approximates per-entry bookkeeping (job struct, map and
// list slots, spec) so even empty results have nonzero cache cost.
const jobOverheadBytes = 1024

// touchLocked marks a cached job most recently used.
func (m *manager) touchLocked(j *Job) {
	if j.lruElem != nil {
		m.lru.MoveToFront(j.lruElem)
	}
}

// removeLocked forgets a job entirely (cache eviction or stale-failure
// replacement).
func (m *manager) removeLocked(j *Job) {
	if j.lruElem != nil {
		m.lru.Remove(j.lruElem)
		m.lruBytes -= j.cost
		j.lruElem = nil
	}
	delete(m.jobs, j.ID)
}

// CacheStats reports the cache size for metrics.
func (m *manager) CacheStats() (entries int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len(), m.lruBytes
}

// QueueDepth reports jobs waiting for a worker.
func (m *manager) QueueDepth() int { return len(m.queue) }

// Draining reports whether shutdown has begun.
func (m *manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Shutdown stops admission immediately, drains queued and running jobs
// until ctx's deadline, then cancels whatever is still in flight and waits
// for the workers to exit. Accepted jobs are never dropped silently: each
// reaches Done, Failed, or Canceled.
func (m *manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	first := !m.closed
	m.closed = true
	m.mu.Unlock()
	if first {
		close(m.queue) // workers drain what was admitted, then exit
	}
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		m.flushStore()
		return nil
	case <-ctx.Done():
		m.baseCancel() // cancel in-flight and still-queued jobs
		<-drained
		m.flushStore()
		return fmt.Errorf("drain deadline exceeded, in-flight jobs canceled: %w", ctx.Err())
	}
}

// flushStore re-files every completed result in the persistent store after
// the drain: jobs write through as they finish, so this is normally all
// no-op Puts, but it retries any write that failed transiently (disk
// briefly full) so a graceful shutdown never strands a computed result in
// memory only.
func (m *manager) flushStore() {
	if m.cfg.Store == nil {
		return
	}
	m.mu.Lock()
	done := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if j.StoreKey != "" && j.State() == StateDone {
			done = append(done, j)
		}
	}
	m.mu.Unlock()
	for _, j := range done {
		result, _, _ := j.Result()
		m.writeThrough(j, result)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "... (truncated)"
}
