package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// smallSpec is a fast job: one quadrant point at a tiny simulated window.
// Vary core to get distinct content addresses.
func smallSpec(core int) exp.Spec {
	return exp.Spec{Experiment: "quadrant", Quadrant: 1, Cores: []int{core}, WarmupNs: 1000, WindowNs: 2000}
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func postSpec(t *testing.T, h http.Handler, spec exp.Spec) (*httptest.ResponseRecorder, JobStatus) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(b)))
	var st JobStatus
	if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("submit response not a JobStatus: %v\n%s", err, rec.Body.Bytes())
		}
	}
	return rec, st
}

func get(h http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %v, want %v", j.ID, j.State(), want)
}

// The result endpoint with ?wait=true serves exactly the canonical bytes
// plus a newline, and a repeat submission is a cache hit served without
// re-running.
func TestResultBytesAndCacheHit(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	spec := smallSpec(1)

	rec, st := postSpec(t, h, spec)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", rec.Code, rec.Body.Bytes())
	}
	if st.Outcome != "accepted" || st.ID == "" {
		t.Fatalf("submit status: %+v", st)
	}

	res := get(h, "/jobs/"+st.ID+"/result?wait=true")
	if res.Code != http.StatusOK {
		t.Fatalf("result: code %d body %s", res.Code, res.Body.Bytes())
	}
	want, err := exp.RunSpecJSON(spec, exp.Defaults())
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if !bytes.Equal(res.Body.Bytes(), append(want, '\n')) {
		t.Fatalf("result bytes differ from direct RunSpecJSON:\n got %s\nwant %s", res.Body.Bytes(), want)
	}

	rec2, st2 := postSpec(t, h, spec)
	if rec2.Code != http.StatusOK || st2.Outcome != "cache_hit" {
		t.Fatalf("resubmit: code %d outcome %q, want 200 cache_hit", rec2.Code, st2.Outcome)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmit id %s != %s: content addressing broken", st2.ID, st.ID)
	}
	if got := s.met.cacheHits.Load(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if got := s.met.finished[StateDone].Load(); got != 1 {
		t.Fatalf("jobs finished done = %d, want exactly 1 execution", got)
	}
}

// A full queue sheds load with 429 + Retry-After instead of buffering.
func TestQueueFullReturns429(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	s.mgr.beforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-block:
		case <-ctx.Done():
		}
	}
	h := s.Handler()

	_, stA := postSpec(t, h, smallSpec(1))
	waitState(t, s.mgr.Get(stA.ID), StateRunning) // worker occupied
	recB, _ := postSpec(t, h, smallSpec(2))       // fills the queue
	if recB.Code != http.StatusAccepted {
		t.Fatalf("second submit: code %d", recB.Code)
	}
	recC, _ := postSpec(t, h, smallSpec(3))
	if recC.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit: code %d, want 429; body %s", recC.Code, recC.Body.Bytes())
	}
	if ra := recC.Result().Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 without Retry-After header")
	}
	if got := s.met.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	close(block)
}

// Duplicate submissions while the first is still in flight attach to it
// rather than enqueueing more work.
func TestInflightDeduplication(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	block := make(chan struct{})
	s.mgr.beforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-block:
		case <-ctx.Done():
		}
	}
	h := s.Handler()

	_, st1 := postSpec(t, h, smallSpec(1))
	waitState(t, s.mgr.Get(st1.ID), StateRunning)
	rec2, st2 := postSpec(t, h, smallSpec(1))
	if rec2.Code != http.StatusAccepted || st2.Outcome != "deduplicated" {
		t.Fatalf("dup submit: code %d outcome %q, want 202 deduplicated", rec2.Code, st2.Outcome)
	}
	if st2.ID != st1.ID {
		t.Fatalf("dedup got id %s, want %s", st2.ID, st1.ID)
	}
	if got := s.met.dedupInflight.Load(); got != 1 {
		t.Fatalf("dedup counter = %d, want 1", got)
	}
	close(block)
}

// Graceful shutdown drains accepted jobs to completion and then refuses
// new work with 503.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	var ids []string
	for core := 1; core <= 3; core++ {
		rec, st := postSpec(t, h, smallSpec(core))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", core, rec.Code)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, id := range ids {
		if st := s.mgr.Get(id).State(); st != StateDone {
			t.Fatalf("job %s ended %v after drain, want done", id, st)
		}
	}
	rec, _ := postSpec(t, h, smallSpec(4))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: code %d, want 503", rec.Code)
	}
}

// When the drain deadline passes, in-flight jobs are canceled rather than
// held forever, and every accepted job still reaches a terminal state.
func TestShutdownDeadlineCancelsInflight(t *testing.T) {
	s := New(Config{Workers: 1})
	s.mgr.beforeRun = func(ctx context.Context, j *Job) { <-ctx.Done() } // wedge until canceled
	h := s.Handler()
	_, st := postSpec(t, h, smallSpec(1))
	j := s.mgr.Get(st.ID)
	waitState(t, j, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatalf("Shutdown returned nil despite wedged job; want drain-deadline error")
	}
	if got := j.State(); got != StateCanceled {
		t.Fatalf("wedged job ended %v, want canceled", got)
	}
}

// A job that exceeds its wall-clock timeout ends canceled with a message
// naming the timeout.
func TestJobTimeout(t *testing.T) {
	s := testServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond})
	h := s.Handler()
	_, st := postSpec(t, h, smallSpec(1))
	j := s.mgr.Get(st.ID)
	waitState(t, j, StateCanceled)
	_, msg, _ := j.Result()
	if !strings.Contains(msg, "job timeout") {
		t.Fatalf("timeout message %q does not name the job timeout", msg)
	}
	res := get(h, "/jobs/"+st.ID+"/result")
	if res.Code != http.StatusConflict {
		t.Fatalf("result of canceled job: code %d, want 409", res.Code)
	}
}

// DELETE cancels a queued job on the spot, and its spec can then be
// resubmitted fresh.
func TestCancelQueuedAndResubmit(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	s.mgr.beforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-block:
		case <-ctx.Done():
		}
	}
	h := s.Handler()
	_, stA := postSpec(t, h, smallSpec(1))
	waitState(t, s.mgr.Get(stA.ID), StateRunning)
	_, stB := postSpec(t, h, smallSpec(2)) // parked in the queue

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+stB.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: code %d", rec.Code)
	}
	if got := s.mgr.Get(stB.ID).State(); got != StateCanceled {
		t.Fatalf("canceled queued job in state %v", got)
	}

	rec2, st2 := postSpec(t, h, smallSpec(2))
	if rec2.Code != http.StatusAccepted || st2.Outcome != "accepted" {
		t.Fatalf("resubmit after cancel: code %d outcome %q, want fresh accept", rec2.Code, st2.Outcome)
	}
	close(block)
}

// The LRU evicts by byte budget, oldest first, never the newest entry.
func TestCacheEviction(t *testing.T) {
	s := testServer(t, Config{Workers: 1, CacheBytes: 1}) // every insert exceeds the cap
	h := s.Handler()
	var ids []string
	for core := 1; core <= 3; core++ {
		_, st := postSpec(t, h, smallSpec(core))
		res := get(h, "/jobs/"+st.ID+"/result?wait=true")
		if res.Code != http.StatusOK {
			t.Fatalf("job %d: %d %s", core, res.Code, res.Body.Bytes())
		}
		ids = append(ids, st.ID)
	}
	entries, _ := s.mgr.CacheStats()
	if entries != 1 {
		t.Fatalf("cache entries = %d, want 1 (cap forces single-entry cache)", entries)
	}
	if s.mgr.Get(ids[0]) != nil || s.mgr.Get(ids[1]) != nil {
		t.Fatalf("evicted jobs still reachable")
	}
	if s.mgr.Get(ids[2]) == nil {
		t.Fatalf("newest job evicted; insertion must keep the newest entry")
	}
	if got := s.met.evictions.Load(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
}

// Spec validation failures are 400s with a JSON error body.
func TestSubmitValidation(t *testing.T) {
	s := testServer(t, Config{Workers: 1, MaxWindowNs: 10_000})
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"garbage", "{nope"},
		{"unknown field", `{"experiment":"fig3","bogus":1}`},
		{"unknown experiment", `{"experiment":"fig999"}`},
		{"bad quadrant", `{"experiment":"quadrant","quadrant":9}`},
		{"window over cap", `{"experiment":"quadrant","window_ns":20000}`},
		{"bad write frac", `{"experiment":"ratio","write_fracs":[2]}`},
		// Specs the simulator cannot build, on either tier.
		{"cores over testbed", `{"experiment":"quadrant","quadrant":1,"cores":[9],"warmup_ns":1000,"window_ns":2000}`},
		{"reserve fills WPQ", `{"experiment":"mcisolation","reserve":48,"warmup_ns":1000,"window_ns":2000}`},
		{"analytic cores over testbed", `{"experiment":"quadrant","fidelity":"analytic","cores":[64]}`},
		// Fault strengths and starts that would overflow simulated time.
		{"fault start wraps", `{"experiment":"quadrant","quadrant":1,"cores":[1],"warmup_ns":1000,"window_ns":2000,` +
			`"faults":[{"kind":"dram_throttle","start_ns":18446744073709552,"duration_ns":50000,"magnitude":4}]}`},
		{"fault magnitude 1e300", `{"experiment":"quadrant","quadrant":1,"cores":[1],"warmup_ns":1000,"window_ns":2000,` +
			`"faults":[{"kind":"dram_throttle","start_ns":1000,"duration_ns":1000,"magnitude":1e300}]}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.Bytes())
			continue
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not an apiError", tc.name, rec.Body.Bytes())
		}
	}
}

// Equivalent spellings of a spec normalize to one content address: the
// second submission is served from cache, not re-run.
func TestEquivalentSpecsShareOneJob(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	explicit := exp.Spec{Experiment: "quadrant", Quadrant: 1, Cores: []int{1},
		WarmupNs: 1000, WindowNs: 2000, Preset: "cascadelake"}
	_, st1 := postSpec(t, h, explicit)
	if res := get(h, "/jobs/"+st1.ID+"/result?wait=true"); res.Code != http.StatusOK {
		t.Fatalf("first run: %d", res.Code)
	}
	defaulted := smallSpec(1) // same computation, knobs left to defaults
	rec2, st2 := postSpec(t, h, defaulted)
	if st2.ID != st1.ID || st2.Outcome != "cache_hit" {
		t.Fatalf("equivalent spec: id %s outcome %q (code %d), want cache hit on %s",
			st2.ID, st2.Outcome, rec2.Code, st1.ID)
	}
}

// Status, list, healthz, experiments, version, and metrics endpoints all
// answer sensibly.
func TestIntrospectionEndpoints(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	_, st := postSpec(t, h, smallSpec(1))
	if res := get(h, "/jobs/"+st.ID+"/result?wait=true"); res.Code != http.StatusOK {
		t.Fatalf("run: %d", res.Code)
	}

	if rec := get(h, "/jobs/"+st.ID); rec.Code != http.StatusOK {
		t.Errorf("status: %d", rec.Code)
	}
	if rec := get(h, "/jobs/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", rec.Code)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	rec := get(h, "/jobs")
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list.Jobs) != 1 {
		t.Errorf("list: %v / %s", err, rec.Body.Bytes())
	}
	var hz struct {
		Status, State string
	}
	rec = get(h, "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil || hz.Status != "ok" || hz.State != "serving" {
		t.Errorf("healthz: %v / %s", err, rec.Body.Bytes())
	}
	var exps struct {
		Experiments []string `json:"experiments"`
	}
	rec = get(h, "/experiments")
	if err := json.Unmarshal(rec.Body.Bytes(), &exps); err != nil || len(exps.Experiments) == 0 {
		t.Errorf("experiments: %v / %s", err, rec.Body.Bytes())
	}
	var ver struct {
		Version string `json:"version"`
	}
	rec = get(h, "/version")
	if err := json.Unmarshal(rec.Body.Bytes(), &ver); err != nil || ver.Version == "" {
		t.Errorf("version: %v / %s", err, rec.Body.Bytes())
	}
	body := get(h, "/metrics").Body.String()
	for _, want := range []string{
		"hostnetd_queue_depth", "hostnetd_queue_capacity",
		"hostnetd_jobs{state=\"done\"} 1",
		"hostnetd_cache_misses_total 1",
		"hostnetd_jobs_finished_total{state=\"done\"} 1",
		"hostnetd_cache_entries 1",
		"hostnetd_job_seconds_total{state=\"done\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// A panicking job is isolated: the daemon survives and reports the job
// failed. The panic is raised inside the job's isolation, where a
// simulation's would be.
func TestPanicIsolation(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	s.mgr.beforeRun = func(_ context.Context, j *Job) {
		if j.Spec.Cores[0] == 3 {
			panic("simulation panic")
		}
	}
	h := s.Handler()
	rec, st := postSpec(t, h, smallSpec(3))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	j := s.mgr.Get(st.ID)
	select {
	case <-j.Done():
	case <-time.After(15 * time.Second):
		t.Fatalf("panicking job never finished")
	}
	_, msg, state := j.Result()
	if state != StateFailed {
		t.Fatalf("panicking job ended %v (%q), want failed", state, msg)
	}
	if res := get(h, "/jobs/"+st.ID+"/result"); res.Code != http.StatusInternalServerError {
		t.Fatalf("result of failed job: %d, want 500", res.Code)
	}
	// The daemon still serves fresh work afterwards.
	_, st2 := postSpec(t, h, smallSpec(1))
	if res := get(h, "/jobs/"+st2.ID+"/result?wait=true"); res.Code != http.StatusOK {
		t.Fatalf("daemon wedged after panic: %d", res.Code)
	}
}

func TestStateAndOutcomeStrings(t *testing.T) {
	if fmt.Sprint(StateQueued, StateRunning, StateDone, StateFailed, StateCanceled) !=
		"queued running done failed canceled" {
		t.Fatalf("state names wrong")
	}
	if OutcomeAccepted.String() != "accepted" || OutcomeCacheHit.String() != "cache_hit" ||
		OutcomeDeduplicated.String() != "deduplicated" {
		t.Fatalf("outcome names wrong")
	}
}

// Jobs of one daemon life share one-host runs: an rdma point after a
// quadrant point reuses the quadrant's C2M-alone run, and both results
// keep the bytes of an uncached run.
func TestRunCacheSharedAcrossJobs(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	for _, spec := range []exp.Spec{
		{Experiment: "quadrant", Quadrant: 1, Cores: []int{2}, WarmupNs: 1000, WindowNs: 2000},
		{Experiment: "rdma", Quadrant: 2, Cores: []int{2}, WarmupNs: 1000, WindowNs: 2000},
	} {
		rec, st := postSpec(t, h, spec)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %s: code %d body %s", spec.Experiment, rec.Code, rec.Body.Bytes())
		}
		want, err := exp.RunSpecJSON(spec, exp.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if got := mustResult(t, h, st.ID); !bytes.Equal(got, want) {
			t.Fatalf("%s result differs from an uncached run", spec.Experiment)
		}
	}
	body := get(h, "/metrics").Body.String()
	for _, want := range []string{
		"hostnetd_runcache_hits_total 1\n",
		"hostnetd_runcache_waits_total 0\n",
		"hostnetd_runcache_misses_total 4\n",
		"hostnetd_runcache_evictions_total 0\n",
		"hostnetd_runcache_entries 4\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
