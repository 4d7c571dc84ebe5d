// Package serve implements hostnetd: the host-network simulator as a
// service. It layers a bounded job queue, a content-addressed result
// cache, and a small JSON/NDJSON HTTP API over the deterministic
// experiment sweeps in internal/exp.
//
// Because sweeps are bit-identical at any parallelism, a job spec fully
// determines its result bytes. The daemon exploits that four ways:
//
//   - Concurrent identical submissions collapse onto one in-flight job —
//     one simulation serves every waiter.
//   - Completed results are cached by the SHA-256 of the canonical spec
//     encoding and re-served without recomputation (LRU, byte-capped).
//   - With a persistent store, results outlive the cache and the process:
//     a submission, or a fetch by job ID, that misses the cache is served
//     from the store.
//   - The served bytes are byte-identical to `hostnetsim -format json`
//     for the same spec.
//
// A job turns terminal in exactly one place — the worker that ran it, or
// Cancel while it is still queued — and that place lands every side
// effect of the transition (store entry, tenant slot, metrics, crossval
// points, LRU entry) once, before ?wait=true clients wake.
//
// Load is shed, never buffered unboundedly: when the admission queue is
// full, POST /jobs returns 429 with Retry-After. Shutdown stops admission
// immediately, drains accepted jobs until a deadline, then cancels the
// remainder — an accepted job always reaches done, failed, or canceled.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/store"
	"repro/internal/version"
)

// Config tunes the daemon. The zero value is usable: withDefaults fills
// every field.
type Config struct {
	// QueueDepth bounds jobs waiting for a worker; a full queue sheds load
	// with 429. Default 64.
	QueueDepth int
	// Workers is the number of jobs executed concurrently. Default 2.
	Workers int
	// JobTimeout bounds one job's wall-clock execution. Default 15m.
	JobTimeout time.Duration
	// CacheBytes caps the result cache. Default 256 MiB.
	CacheBytes int64
	// MaxWindowNs caps a submitted spec's measurement window (and warmup)
	// in simulated nanoseconds, so one request cannot monopolize the
	// daemon. Default 10ms of simulated time; negative disables the cap.
	MaxWindowNs int64
	// Parallelism is the sweep-pool width per job (exp.Options.Parallelism).
	// Default 0: GOMAXPROCS.
	Parallelism int
	// Audit enables simulator invariant auditing inside jobs.
	Audit bool
	// Store, when non-nil, is the persistent content-addressed result store
	// the in-memory cache reads through and writes through: completed
	// results are filed under the full canonical-spec SHA-256 and survive
	// restarts; submissions that miss the in-memory cache are served from
	// the store without re-simulating. Point a fleet of daemons at one
	// directory to share results (determinism makes that coherence-free).
	Store *store.Store
	// Fleet, when non-nil, switches the daemon into coordinator mode: jobs
	// are executed by sharding them across the coordinator's worker pool
	// (splittable sweeps point-by-point) instead of simulating locally. The
	// serve-layer queue, dedup, cache, store, and shedding all still apply,
	// so a coordinator looks exactly like a worker to its clients.
	Fleet *fleet.Coordinator
	// TenantQuota bounds each tenant's concurrently admitted jobs (queued +
	// running, keyed on the X-Tenant request header; absent means the
	// anonymous tenant). Submissions over quota are shed with 429 without
	// touching the shared queue, so one tenant cannot monopolize admission.
	// 0 disables per-tenant quotas.
	TenantQuota int
	// Fidelity restricts which fidelity tiers this server answers: "" or
	// "both" (default) serves sim and analytic, "sim" rejects analytic
	// specs with 400, "analytic" rejects sim specs with 400 (a pure
	// model-evaluation server needs no worker pool to speak of).
	Fidelity string
	// Refine, when true, follows every fresh analytic answer with its sim
	// twin (fidelity cleared, same spec otherwise) enqueued at background
	// priority. When the twin completes, the pair's analytic-vs-sim error
	// is folded into the GET /crossval report, so operating the fast tier
	// continuously re-validates it against the slow one. Refinements are
	// skipped (never shed as errors) when the queue is half full or the
	// twin's default windows exceed MaxWindowNs.
	Refine bool
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxWindowNs == 0 {
		c.MaxWindowNs = 10_000_000 // 10ms simulated
	}
	if c.Fidelity == "both" {
		c.Fidelity = ""
	}
	return c
}

// Server is the hostnetd HTTP surface. Create with New, mount Handler,
// and call Shutdown before exiting.
type Server struct {
	cfg   Config
	met   *metrics
	mgr   *manager
	mux   *http.ServeMux
	start time.Time

	// retryHook, when set (tests only), runs between a full-queue rejection
	// and the one retry handleSubmit makes before writing 429.
	retryHook func()
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		met:   &metrics{},
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mgr = newManager(cfg, s.met)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /jobs/batch", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /crossval", s.handleCrossval)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops admission, drains accepted jobs until ctx's deadline,
// then cancels the rest. See manager.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error { return s.mgr.Shutdown(ctx) }

// JobStatus is the API's view of one job.
type JobStatus struct {
	ID          string   `json:"id"`
	State       string   `json:"state"`
	Outcome     string   `json:"outcome,omitempty"` // submit responses only
	Spec        exp.Spec `json:"spec"`
	PointsDone  int64    `json:"points_done"`
	PointsTotal int      `json:"points_total,omitempty"` // estimate; 0 = unknown
	Error       string   `json:"error,omitempty"`
	SubmittedAt string   `json:"submitted_at,omitempty"`
	StartedAt   string   `json:"started_at,omitempty"`
	FinishedAt  string   `json:"finished_at,omitempty"`
	ElapsedMS   int64    `json:"elapsed_ms,omitempty"` // run wall-clock so far or total
	ResultBytes int      `json:"result_bytes,omitempty"`
}

func statusOf(j *Job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state.String(),
		Spec:        j.Spec,
		PointsDone:  j.points,
		PointsTotal: exp.SpecTasks(j.Spec),
		Error:       j.errMsg,
		ResultBytes: len(j.result),
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.SubmittedAt = stamp(j.submitted)
	st.StartedAt = stamp(j.started)
	st.FinishedAt = stamp(j.finished)
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		st.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	case !j.started.IsZero():
		st.ElapsedMS = time.Since(j.started).Milliseconds()
	}
	return st
}

// apiError is the JSON error body for every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxSpecBody bounds a submitted spec; real specs are well under 1 KiB.
const maxSpecBody = 1 << 20

// maxBatchSpecs bounds one batch submission; larger suites should be split
// so a single request cannot reserve the whole queue.
const maxBatchSpecs = 256

// admit runs the full admission pipeline for one spec: normalize,
// validate, cap the simulated window, canonicalize, and submit — retrying
// once if the queue-full rejection might be stale. On error it returns the
// HTTP status the caller should write.
func (s *Server) admit(spec exp.Spec, tenant string) (j *Job, outcome Outcome, code int, err error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("invalid job spec: %w", err)
	}
	if spec.Fidelity == exp.FidelityAnalytic {
		return s.admitAnalytic(spec)
	}
	if s.cfg.Fidelity == exp.FidelityAnalytic {
		return nil, 0, http.StatusBadRequest, fmt.Errorf(
			"this server answers only analytic-fidelity specs (-fidelity analytic); set \"fidelity\": \"analytic\" or submit to a sim-capable server")
	}
	if s.cfg.MaxWindowNs > 0 {
		if spec.WindowNs > s.cfg.MaxWindowNs || spec.WarmupNs > s.cfg.MaxWindowNs {
			return nil, 0, http.StatusBadRequest, fmt.Errorf(
				"window_ns/warmup_ns exceed this server's cap of %d simulated ns", s.cfg.MaxWindowNs)
		}
	}
	canonical, err := spec.Canonical()
	if err != nil {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("cannot canonicalize spec: %w", err)
	}
	j, outcome, err = s.mgr.Submit(spec, canonical, tenant)
	if errors.Is(err, ErrQueueFull) {
		// The queue may have drained between the failed reservation and
		// this response: a worker dequeues the moment a slot frees, so the
		// rejection can be stale by the time it would be written. Retry the
		// admission once before shedding load — a 429 must mean the queue
		// was full twice, not that the client lost a benign race.
		if h := s.retryHook; h != nil {
			h()
		}
		j, outcome, err = s.mgr.Submit(spec, canonical, tenant)
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		s.met.rejected.Add(1)
		return nil, 0, http.StatusTooManyRequests, fmt.Errorf("%w (capacity %d)", err, s.cfg.QueueDepth)
	case errors.Is(err, ErrTenantQuota):
		s.met.tenantRejected.Add(1)
		return nil, 0, http.StatusTooManyRequests, fmt.Errorf("%w (quota %d)", err, s.cfg.TenantQuota)
	case errors.Is(err, ErrClosed):
		return nil, 0, http.StatusServiceUnavailable, err
	case err != nil:
		return nil, 0, http.StatusInternalServerError, err
	}
	return j, outcome, 0, nil
}

// admitAnalytic answers an analytic-fidelity spec synchronously: the
// predictive model runs in microseconds, so the answer is computed inline
// (never queued), cached, and written through to the store like any other
// result. Specs outside the model's domain get a typed 422 telling the
// client to fall back to the sim tier.
func (s *Server) admitAnalytic(spec exp.Spec) (j *Job, outcome Outcome, code int, err error) {
	if s.cfg.Fidelity == exp.FidelitySim {
		return nil, 0, http.StatusBadRequest, fmt.Errorf(
			"this server answers only sim-fidelity specs (-fidelity sim); drop \"fidelity\": \"analytic\" or submit to an analytic-capable server")
	}
	canonical, err := spec.Canonical()
	if err != nil {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("cannot canonicalize spec: %w", err)
	}
	j, outcome, err = s.mgr.RunAnalytic(spec, canonical)
	var unsup *analytic.UnsupportedError
	switch {
	case errors.As(err, &unsup):
		return nil, 0, http.StatusUnprocessableEntity, fmt.Errorf("%v; resubmit without \"fidelity\": \"analytic\" for the sim tier", err)
	case errors.Is(err, ErrClosed):
		return nil, 0, http.StatusServiceUnavailable, err
	case err != nil:
		return nil, 0, http.StatusInternalServerError, err
	}
	if s.cfg.Refine && outcome == OutcomeAnalytic {
		s.enqueueRefinement(j)
	}
	return j, outcome, 0, nil
}

// refineTenant is the reserved tenant refinement twins are admitted under;
// it cannot collide with an X-Tenant header tenant because handleSubmit
// never forwards it (and real tenants with quotas shouldn't pay for
// background validation anyway — the twin competes only with other twins).
const refineTenant = "~refine"

// enqueueRefinement submits the sim twin of a freshly computed analytic
// answer at background priority. Skips (counted, never surfaced as errors)
// keep refinement from competing with real load: no twin is enqueued when
// the queue is already half full, when the twin's windows exceed the
// server's cap, or when admission fails for any reason.
func (s *Server) enqueueRefinement(aj *Job) {
	twin := aj.Spec
	twin.Fidelity = "" // sim tier; Normalized restores the default windows
	twin = twin.Normalized()
	if s.cfg.MaxWindowNs > 0 && (twin.WindowNs > s.cfg.MaxWindowNs || twin.WarmupNs > s.cfg.MaxWindowNs) {
		s.met.refineSkipped.Add(1)
		return
	}
	if s.mgr.QueueDepth() >= s.cfg.QueueDepth/2 {
		s.met.refineSkipped.Add(1)
		return
	}
	canonical, err := twin.Canonical()
	if err != nil {
		s.met.refineSkipped.Add(1)
		return
	}
	analyticEnv, _, _ := aj.Result()
	tj, _, err := s.mgr.Submit(twin, canonical, refineTenant)
	if err != nil {
		s.met.refineSkipped.Add(1)
		return
	}
	s.met.refineEnqueued.Add(1)
	// Every admitted job turns terminal, even at shutdown, so this wait
	// ends; only a completed twin yields a comparison.
	go func() {
		<-tj.Done()
		if result, _, st := tj.Result(); st == StateDone {
			s.mgr.noteCrossval(analyticEnv, result)
		}
	}()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec exp.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, outcome, code, err := s.admit(spec, r.Header.Get("X-Tenant"))
	if err != nil {
		if code == http.StatusTooManyRequests {
			secs := retryAfterSecs(s.mgr.QueueDepth(), s.cfg.Workers, s.met.recentMeanJobDur())
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeError(w, code, "%v", err)
		return
	}
	st := statusOf(j)
	st.Outcome = outcome.String()
	code = http.StatusAccepted
	if outcome == OutcomeCacheHit || outcome == OutcomeStoreHit || outcome == OutcomeAnalytic {
		code = http.StatusOK // the result is already available
	}
	writeJSON(w, code, st)
}

// retryAfterSecs estimates how long a shed client should wait before
// retrying: the current backlog spread across the worker pool at the
// recent mean sim-job duration (analytic answers never enter the ring —
// they are inline and would drag the mean to zero), rounded up and clamped
// to [1, 60] seconds. Before any job has completed there is no estimate,
// so the old fixed 1s survives as the floor.
func retryAfterSecs(depth, workers int, mean time.Duration) int {
	if depth <= 0 || workers <= 0 || mean <= 0 {
		return 1
	}
	wait := time.Duration(depth) * mean / time.Duration(workers)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// batchItem is one entry in a batch-submit response: the admitted job's
// status, or the error that kept the spec out (the rest of the batch is
// unaffected — admission is per spec, not all-or-nothing).
type batchItem struct {
	JobStatus
	SubmitError string `json:"submit_error,omitempty"`
}

// handleSubmitBatch admits a whole suite of specs in one request (figure
// warming, sweep fan-in). Each spec goes through the same admission
// pipeline as POST /jobs, including dedup, cache/store hits, tenant
// quotas, and shedding; outcomes are reported per item.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Specs []exp.Spec `json:"specs"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no specs")
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		writeError(w, http.StatusBadRequest, "batch of %d specs exceeds the limit of %d", len(req.Specs), maxBatchSpecs)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	items := make([]batchItem, len(req.Specs))
	admitted := 0
	for i, spec := range req.Specs {
		j, outcome, _, err := s.admit(spec, tenant)
		if err != nil {
			items[i].SubmitError = err.Error()
			continue
		}
		items[i].JobStatus = statusOf(j)
		items[i].Outcome = outcome.String()
		admitted++
	}
	writeJSON(w, http.StatusAccepted, struct {
		Admitted int         `json:"admitted"`
		Jobs     []batchItem `json:"jobs"`
	}{admitted, items})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, statusOf(j))
	}
	// Oldest submission first: deterministic enough for humans, and the map
	// iteration order never leaks.
	sortStatuses(out)
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{out})
}

func sortStatuses(st []JobStatus) {
	for i := 1; i < len(st); i++ {
		for k := i; k > 0 && less(st[k], st[k-1]); k-- {
			st[k], st[k-1] = st[k-1], st[k]
		}
	}
}

func less(a, b JobStatus) bool {
	if a.SubmittedAt != b.SubmittedAt {
		return a.SubmittedAt < b.SubmittedAt
	}
	return a.ID < b.ID
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	j := s.mgr.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	s.mgr.Cancel(j, "client request")
	writeJSON(w, http.StatusOK, statusOf(j))
}

// handleResult serves the canonical result bytes. With ?wait=true it
// blocks until the job finishes (or the client goes away).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if wantWait(r) {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	result, errMsg, state := j.Result()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
		w.Write([]byte("\n")) // byte-identical to one `hostnetsim -format json` line
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	case StateCanceled:
		writeError(w, http.StatusConflict, "%s", errMsg)
	default:
		writeError(w, http.StatusConflict, "job is %s; retry later or use ?wait=true", state)
	}
}

func wantWait(r *http.Request) bool {
	v := strings.ToLower(r.URL.Query().Get("wait"))
	return v == "1" || v == "true" || v == "yes"
}

// streamEvent is one NDJSON line on /jobs/{id}/stream.
type streamEvent struct {
	Event       string          `json:"event"` // "status", "progress", "done"
	State       string          `json:"state,omitempty"`
	PointsDone  int64           `json:"points_done"`
	PointsTotal int             `json:"points_total,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// handleStream streams job progress as NDJSON: an initial status event,
// a coalesced progress event per completed sweep point, and a final done
// event carrying the result (or error) inline.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	total := exp.SpecTasks(j.Spec)

	emit := func(ev streamEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	sub := j.subscribe()
	defer j.unsubscribe(sub)

	if !emit(streamEvent{Event: "status", State: j.State().String(), PointsDone: j.PointsDone(), PointsTotal: total}) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub:
			if !emit(streamEvent{Event: "progress", PointsDone: j.PointsDone(), PointsTotal: total}) {
				return
			}
		case <-j.Done():
			result, errMsg, state := j.Result()
			emit(streamEvent{
				Event:      "done",
				State:      state.String(),
				PointsDone: j.PointsDone(), PointsTotal: total,
				Error:  errMsg,
				Result: json.RawMessage(result),
			})
			return
		}
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []string `json:"experiments"`
	}{exp.Experiments()})
}

// handleCrossval reports the accumulated analytic-vs-sim error per
// config-space region, fed by completed crossval jobs and by background
// refinement pairs. A region outside the pinned envelope is where the
// analytic tier should not be trusted unrefined.
func (s *Server) handleCrossval(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		EnvelopePct float64          `json:"envelope_pct"`
		Samples     int64            `json:"samples"`
		Regions     []CrossvalRegion `json:"regions"`
	}{exp.CrossvalEnvelopePct, s.mgr.cv.samples(), s.mgr.cv.snapshot()})
}

// storeHealth is /healthz's view of the persistent store.
type storeHealth struct {
	Ready   bool   `json:"ready"`
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// fleetHealth is /healthz's view of the coordinator's worker pool.
type fleetHealth struct {
	Ready int `json:"ready"` // workers answering /healthz right now
	Total int `json:"total"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if s.mgr.Draining() {
		state = "draining"
	}
	resp := struct {
		Status  string       `json:"status"`
		State   string       `json:"state"`
		UpSec   int64        `json:"uptime_seconds"`
		Workers int          `json:"workers"`
		Store   *storeHealth `json:"store,omitempty"`
		Fleet   *fleetHealth `json:"fleet,omitempty"`
	}{"ok", state, int64(time.Since(s.start).Seconds()), s.cfg.Workers, nil, nil}
	if st := s.cfg.Store; st != nil {
		ss := st.Stats()
		resp.Store = &storeHealth{Ready: true, Dir: st.Dir(), Entries: ss.Entries, Bytes: ss.Bytes}
	}
	if fl := s.cfg.Fleet; fl != nil {
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		ready, total := fl.Ready(ctx)
		resp.Fleet = &fleetHealth{Ready: ready, Total: total}
		if ready < total {
			// Still 200 — the daemon itself is up and sheds or retries as
			// needed — but the body says the pool is short.
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// Warm pre-populates the cache (and, when configured, the persistent
// store) by submitting each spec through the ordinary admission pipeline
// and waiting for its terminal state. Specs already cached or stored are
// free; the rest simulate. It returns how many specs ended done and how
// many failed (invalid, shed after retry, canceled, or simulation error).
// Warming a figure suite before pointing plotting jobs at the daemon makes
// every figure fetch a cache hit.
func (s *Server) Warm(ctx context.Context, specs []exp.Spec) (done, failed int) {
	for _, spec := range specs {
		j, _, _, err := s.admit(spec, "")
		if err != nil {
			failed++
			continue
		}
		select {
		case <-j.Done():
		case <-ctx.Done():
			failed++
			continue
		}
		if j.State() == StateDone {
			done++
		} else {
			failed++
		}
	}
	return done, failed
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writeProm(w, s.mgr)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, version.Get())
}
