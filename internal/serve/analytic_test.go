package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/store"
)

// analyticSpec is a quadrant sweep answered by the predictive model.
func analyticSpec(cores ...int) exp.Spec {
	return exp.Spec{Experiment: "quadrant", Quadrant: 1, Cores: cores, Fidelity: exp.FidelityAnalytic}
}

// The analytic fast path end to end: answered inline with 200 + outcome
// "analytic" (never queued, never charged to the tenant), cached for
// resubmission, written through to the store, and byte-identical to a
// direct RunSpecJSON.
func TestAnalyticFastPath(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{Workers: 1, Store: st})
	h := s.Handler()
	spec := analyticSpec(1, 2)

	start := time.Now()
	rec, status := postSpec(t, h, spec)
	cold := time.Since(start)
	if rec.Code != http.StatusOK || status.Outcome != "analytic" {
		t.Fatalf("analytic submit: code %d outcome %q body %s, want 200 analytic",
			rec.Code, status.Outcome, rec.Body.Bytes())
	}
	// The acceptance bar is <10ms cold; allow generous CI slack and log the
	// real number so regressions are visible in the test output.
	t.Logf("cold analytic answer in %v", cold)
	if cold > 2*time.Second {
		t.Errorf("cold analytic answer took %v: the fast path is not fast", cold)
	}

	res := get(h, "/jobs/"+status.ID+"/result")
	if res.Code != http.StatusOK {
		t.Fatalf("result: code %d body %s", res.Code, res.Body.Bytes())
	}
	want, err := exp.RunSpecJSON(spec.Normalized(), exp.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body.Bytes(), append(want, '\n')) {
		t.Fatalf("analytic result differs from direct run:\n got %s\nwant %s", res.Body.Bytes(), want)
	}

	rec2, status2 := postSpec(t, h, spec)
	if rec2.Code != http.StatusOK || status2.Outcome != "cache_hit" || status2.ID != status.ID {
		t.Fatalf("resubmit: code %d outcome %q id %s, want 200 cache_hit %s",
			rec2.Code, status2.Outcome, status2.ID, status.ID)
	}

	// The daemon-smoke metric contract: analytic answers ride their own
	// counters, leaving the sim-tier jobs_finished/cache_misses untouched.
	if got := s.met.analyticServed.Load(); got != 1 {
		t.Errorf("analytic served = %d, want 1", got)
	}
	if got := s.met.cacheMisses.Load(); got != 0 {
		t.Errorf("cache misses = %d after analytic-only traffic, want 0", got)
	}
	if got := s.met.finished[StateDone].Load(); got != 0 {
		t.Errorf("jobs finished done = %d after analytic-only traffic, want 0", got)
	}
	if got := s.mgr.tenantInFlight(""); got != 0 {
		t.Errorf("anonymous tenant holds %d slots after inline answers, want 0", got)
	}

	// Write-through happened: a second daemon sharing the directory serves
	// the same spec as a store hit without evaluating the model.
	s2 := testServer(t, Config{Workers: 1, Store: st})
	rec3, status3 := postSpec(t, s2.Handler(), spec)
	if rec3.Code != http.StatusOK || status3.Outcome != "store_hit" {
		t.Fatalf("second life: code %d outcome %q, want 200 store_hit", rec3.Code, status3.Outcome)
	}
}

// Specs the model cannot answer get a typed 422 — distinct from the 400s
// of malformed specs — telling the client to fall back to the sim tier.
func TestAnalyticUnsupportedIs422(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	for _, spec := range []exp.Spec{
		{Experiment: "fig3", Fidelity: exp.FidelityAnalytic},
		{Experiment: "incast", Fidelity: exp.FidelityAnalytic},
		{Experiment: "quadrant", Preset: "icelake", Fidelity: exp.FidelityAnalytic},
		{Experiment: "quadrant", DDIO: true, Fidelity: exp.FidelityAnalytic},
	} {
		rec, _ := postSpec(t, h, spec)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s (preset=%q ddio=%v): code %d, want 422; body %s",
				spec.Experiment, spec.Preset, spec.DDIO, rec.Code, rec.Body.Bytes())
		}
	}
	// Nothing unsupported was cached: resubmitting as sim works normally.
	rec, status := postSpec(t, h, smallSpec(1))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("sim submit after 422s: code %d", rec.Code)
	}
	if res := get(h, "/jobs/"+status.ID+"/result?wait=true"); res.Code != http.StatusOK {
		t.Fatalf("sim result: code %d", res.Code)
	}
}

// -fidelity restricts the tiers a server accepts, with 400 (not 422: the
// spec is fine, this server just doesn't serve that tier).
func TestFidelityRestriction(t *testing.T) {
	simOnly := testServer(t, Config{Workers: 1, Fidelity: "sim"})
	if rec, _ := postSpec(t, simOnly.Handler(), analyticSpec(1)); rec.Code != http.StatusBadRequest {
		t.Errorf("analytic spec on -fidelity sim server: code %d, want 400", rec.Code)
	}

	anOnly := testServer(t, Config{Workers: 1, Fidelity: "analytic"})
	if rec, _ := postSpec(t, anOnly.Handler(), smallSpec(1)); rec.Code != http.StatusBadRequest {
		t.Errorf("sim spec on -fidelity analytic server: code %d, want 400", rec.Code)
	}
	if rec, status := postSpec(t, anOnly.Handler(), analyticSpec(1)); rec.Code != http.StatusOK || status.Outcome != "analytic" {
		t.Errorf("analytic spec on -fidelity analytic server: code %d outcome %q", rec.Code, status.Outcome)
	}
}

// crossvalReport is the GET /crossval body.
type crossvalReport struct {
	EnvelopePct float64          `json:"envelope_pct"`
	Samples     int64            `json:"samples"`
	Regions     []CrossvalRegion `json:"regions"`
}

func getCrossval(t *testing.T, h http.Handler) crossvalReport {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/crossval", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /crossval: code %d", rec.Code)
	}
	var rep crossvalReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("GET /crossval: %v\n%s", err, rec.Body.Bytes())
	}
	return rep
}

// Refine mode: a fresh analytic answer enqueues its sim twin in the
// background, and the completed pair lands in GET /crossval.
func TestRefineFeedsCrossval(t *testing.T) {
	s := testServer(t, Config{Workers: 2, Refine: true})
	h := s.Handler()

	rec, status := postSpec(t, h, analyticSpec(1))
	if rec.Code != http.StatusOK || status.Outcome != "analytic" {
		t.Fatalf("analytic submit: code %d outcome %q", rec.Code, status.Outcome)
	}
	if got := s.met.refineEnqueued.Load(); got != 1 {
		t.Fatalf("refine enqueued = %d, want 1", got)
	}

	deadline := time.Now().Add(30 * time.Second)
	var rep crossvalReport
	for {
		rep = getCrossval(t, h)
		if rep.Samples > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rep.Samples != 1 || len(rep.Regions) != 1 {
		t.Fatalf("crossval report after refinement: %+v", rep)
	}
	r := rep.Regions[0]
	if r.Experiment != "quadrant" || r.Quadrant != 1 || r.Cores != 1 || r.Samples != 1 {
		t.Fatalf("region: %+v", r)
	}
	if rep.EnvelopePct != exp.CrossvalEnvelopePct {
		t.Fatalf("envelope_pct = %v, want %v", rep.EnvelopePct, exp.CrossvalEnvelopePct)
	}
	// The twin ran at the paper's default windows, where the model is
	// inside its envelope.
	if !r.WithinEnvelope {
		t.Errorf("refinement pair outside the envelope: %+v", r)
	}
	// The reserved refine tenant released its slot.
	if got := s.mgr.tenantInFlight(refineTenant); got != 0 {
		t.Errorf("refine tenant holds %d slots after completion, want 0", got)
	}

	// Resubmitting is a cache hit: no second twin.
	postSpec(t, h, analyticSpec(1))
	if got := s.met.refineEnqueued.Load(); got != 1 {
		t.Errorf("refine enqueued = %d after cache hit, want still 1", got)
	}
}

// A completed crossval experiment job feeds the same report.
func TestCrossvalJobFeedsReport(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	spec := exp.Spec{Experiment: "crossval", Quadrant: 1, Cores: []int{1, 2}, WarmupNs: 1000, WindowNs: 2000}
	rec, status := postSpec(t, h, spec)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", rec.Code, rec.Body.Bytes())
	}
	if res := get(h, "/jobs/"+status.ID+"/result?wait=true"); res.Code != http.StatusOK {
		t.Fatalf("result: code %d", res.Code)
	}
	rep := getCrossval(t, h)
	if rep.Samples != 2 || len(rep.Regions) != 2 {
		t.Fatalf("report after crossval job: %+v", rep)
	}
	for _, r := range rep.Regions {
		if r.Experiment != "crossval" {
			t.Errorf("region experiment %q, want crossval", r.Experiment)
		}
	}
}

// retryAfterSecs: backlog spread across workers at the recent mean,
// rounded up, clamped to [1, 60], and 1 with no history.
func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		depth, workers int
		mean           time.Duration
		want           int
	}{
		{0, 2, time.Second, 1},            // empty queue
		{5, 2, 0, 1},                      // no history yet
		{10, 2, 3 * time.Second, 15},      // 10×3s / 2 workers
		{3, 2, 100 * time.Millisecond, 1}, // sub-second rounds up to the floor
		{3, 2, 900 * time.Millisecond, 2}, // 1.35s rounds up
		{100, 1, 10 * time.Second, 60},    // clamped
		{1, 4, 500 * time.Millisecond, 1}, // fractional backlog
		{64, 2, 4 * time.Second, 60},      // a full default queue of fig3s
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.depth, c.workers, c.mean); got != c.want {
			t.Errorf("retryAfterSecs(%d, %d, %v) = %d, want %d", c.depth, c.workers, c.mean, got, c.want)
		}
	}
}

// Hammer one tenant through every terminal path — done, cache hit, dedup,
// cancel-while-queued, cancel-while-running, analytic inline — and the
// quota must return to zero. This is the regression test for the audit of
// the tenant-slot release sites.
func TestTenantQuotaReleasedOnEveryTerminalPath(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 8, TenantQuota: 4})
	h := s.Handler()
	const tenant = "t1"

	post := func(spec exp.Spec) (*httptest.ResponseRecorder, JobStatus) {
		t.Helper()
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/jobs", bytes.NewReader(b))
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var st JobStatus
		if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("submit response: %v", err)
			}
		}
		return rec, st
	}

	// Path 1: ordinary completion.
	_, stDone := post(smallSpec(1))
	if res := get(h, "/jobs/"+stDone.ID+"/result?wait=true"); res.Code != http.StatusOK {
		t.Fatalf("done path: code %d", res.Code)
	}
	// Path 2+3: cache hit and dedup (identical spec while the first is
	// terminal / while a slow one is in flight).
	if _, st := post(smallSpec(1)); st.Outcome != "cache_hit" {
		t.Fatalf("cache-hit path: outcome %q", st.Outcome)
	}

	// Occupy the single worker so subsequent submissions stay queued.
	block := make(chan struct{})
	s.mgr.beforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-block:
		case <-ctx.Done():
		}
	}
	_, stRun := post(smallSpec(2))
	waitState(t, s.mgr.Get(stRun.ID), StateRunning)
	_, stDup := post(smallSpec(2)) // dedup onto the running job
	if stDup.Outcome != "deduplicated" {
		t.Fatalf("dedup path: outcome %q", stDup.Outcome)
	}
	_, stQueued := post(smallSpec(3))

	// The tenant now holds 2 slots (running + queued; dedup and hits are
	// never charged).
	if got := s.mgr.tenantInFlight(tenant); got != 2 {
		t.Fatalf("in-flight = %d with one running and one queued, want 2", got)
	}

	// Path 4: cancel while queued must free the slot immediately — before
	// any worker touches the tombstone.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+stQueued.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: code %d", rec.Code)
	}
	if got := s.mgr.tenantInFlight(tenant); got != 1 {
		t.Fatalf("in-flight = %d right after cancel-while-queued, want 1 (slot leaked)", got)
	}

	// Path 5: analytic inline answers are never charged.
	if rec, st := post(analyticSpec(1)); rec.Code != http.StatusOK || st.Outcome != "analytic" {
		t.Fatalf("analytic path: code %d outcome %q", rec.Code, st.Outcome)
	}
	if got := s.mgr.tenantInFlight(tenant); got != 1 {
		t.Fatalf("in-flight = %d after analytic answer, want still 1", got)
	}

	// Path 6: cancel while running.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+stRun.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel running: code %d", rec.Code)
	}
	close(block)
	waitState(t, s.mgr.Get(stRun.ID), StateCanceled)

	deadline := time.Now().Add(15 * time.Second)
	for s.mgr.tenantInFlight(tenant) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d after every job terminal, want 0", s.mgr.tenantInFlight(tenant))
		}
		time.Sleep(time.Millisecond)
	}
}

// Double-cancel and cancel-after-completion must not over-release: the
// quota map never goes negative (a job turns terminal, and frees its slot,
// once).
func TestCancelIsIdempotentOnQuota(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 8, TenantQuota: 2})
	block := make(chan struct{})
	s.mgr.beforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-block:
		case <-ctx.Done():
		}
	}
	h := s.Handler()

	b, _ := json.Marshal(smallSpec(1))
	req := httptest.NewRequest("POST", "/jobs", bytes.NewReader(b))
	req.Header.Set("X-Tenant", "t2")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st JobStatus
	json.Unmarshal(rec.Body.Bytes(), &st)
	waitState(t, s.mgr.Get(st.ID), StateRunning)

	b2, _ := json.Marshal(smallSpec(2))
	req2 := httptest.NewRequest("POST", "/jobs", bytes.NewReader(b2))
	req2.Header.Set("X-Tenant", "t2")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	var stQ JobStatus
	json.Unmarshal(rec2.Body.Bytes(), &stQ)

	for i := 0; i < 3; i++ { // hammer DELETE on the queued job
		r := httptest.NewRecorder()
		h.ServeHTTP(r, httptest.NewRequest("DELETE", "/jobs/"+stQ.ID, nil))
	}
	if got := s.mgr.tenantInFlight("t2"); got != 1 {
		t.Fatalf("in-flight = %d after triple cancel of the queued job, want 1", got)
	}
	close(block)
	waitState(t, s.mgr.Get(st.ID), StateDone)
	deadline := time.Now().Add(15 * time.Second)
	for s.mgr.tenantInFlight("t2") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d at the end, want 0", s.mgr.tenantInFlight("t2"))
		}
		time.Sleep(time.Millisecond)
	}
}
