package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/store"
)

// openStore opens a store on dir (creating it) and fails the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestStoreReadThroughAcrossRestart is the persistence contract: a result
// computed by one daemon life is served by the next from the store, byte
// for byte, without re-simulating.
func TestStoreReadThroughAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(1)

	// First life: compute, serve, drain.
	var ranA atomic.Int64
	sA := New(Config{Workers: 1, Store: openStore(t, dir)})
	sA.mgr.beforeRun = func(context.Context, *Job) { ranA.Add(1) }
	rec, st := postSpec(t, sA.Handler(), spec)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", rec.Code, rec.Body.Bytes())
	}
	j := sA.mgr.Get(st.ID)
	waitState(t, j, StateDone)
	firstLife := get(sA.Handler(), "/jobs/"+st.ID+"/result")
	if firstLife.Code != http.StatusOK {
		t.Fatalf("first-life result: code %d", firstLife.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sA.Shutdown(ctx); err != nil {
		t.Fatalf("first-life shutdown: %v", err)
	}
	if got := ranA.Load(); got != 1 {
		t.Fatalf("first life ran %d jobs, want 1", got)
	}

	// Second life: same directory, cold in-memory cache.
	var ranB atomic.Int64
	sB := testServer(t, Config{Workers: 1, Store: openStore(t, dir)})
	sB.mgr.beforeRun = func(context.Context, *Job) { ranB.Add(1) }
	rec, st = postSpec(t, sB.Handler(), spec)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm submit: code %d body %s", rec.Code, rec.Body.Bytes())
	}
	if st.Outcome != "store_hit" {
		t.Fatalf("warm submit outcome %q, want store_hit", st.Outcome)
	}
	secondLife := get(sB.Handler(), "/jobs/"+st.ID+"/result")
	if secondLife.Code != http.StatusOK || !bytes.Equal(secondLife.Body.Bytes(), firstLife.Body.Bytes()) {
		t.Fatalf("second-life result differs from first (code %d)", secondLife.Code)
	}
	if got := ranB.Load(); got != 0 {
		t.Fatalf("second life ran %d jobs, want 0 (store hit)", got)
	}

	// The revived job is an ordinary cached entry: resubmitting is now an
	// in-memory cache hit, and the store hit shows up in the metrics.
	if _, st2 := postSpec(t, sB.Handler(), spec); st2.Outcome != "cache_hit" {
		t.Fatalf("resubmit outcome %q, want cache_hit", st2.Outcome)
	}
	metrics := get(sB.Handler(), "/metrics").Body.String()
	for _, want := range []string{
		"hostnetd_store_hits_total 1",
		"hostnetd_jobs_finished_total{state=\"done\"} 0",
		"hostnetd_store_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Healthz reports the store.
	var hz struct {
		Store *storeHealth `json:"store"`
	}
	if err := json.Unmarshal(get(sB.Handler(), "/healthz").Body.Bytes(), &hz); err != nil || hz.Store == nil {
		t.Fatalf("healthz store block missing: %v", err)
	}
	if !hz.Store.Ready || hz.Store.Entries != 1 {
		t.Fatalf("healthz store = %+v, want ready with 1 entry", hz.Store)
	}
}

// With a store, a result the LRU evicted is still served: fetching it
// again revives it from the store with the first fetch's bytes, while a
// well-formed ID the daemon never issued stays a 404.
func TestEvictedResultServedFromStore(t *testing.T) {
	s := testServer(t, Config{Workers: 1, CacheBytes: 1, Store: openStore(t, t.TempDir())})
	h := s.Handler()
	_, stA := postSpec(t, h, smallSpec(1))
	first := get(h, "/jobs/"+stA.ID+"/result?wait=true")
	if first.Code != http.StatusOK {
		t.Fatalf("A: code %d body %s", first.Code, first.Body.Bytes())
	}
	_, stB := postSpec(t, h, smallSpec(2))
	if res := get(h, "/jobs/"+stB.ID+"/result?wait=true"); res.Code != http.StatusOK {
		t.Fatalf("B: code %d body %s", res.Code, res.Body.Bytes())
	}
	if got := s.met.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d after B, want 1 (A evicted)", got)
	}

	again := get(h, "/jobs/"+stA.ID+"/result")
	if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("evicted A: code %d body %s, want 200 with the first fetch's bytes", again.Code, again.Body.Bytes())
	}
	if res := get(h, "/jobs/"+stA.ID); res.Code != http.StatusOK {
		t.Fatalf("evicted A status: code %d body %s", res.Code, res.Body.Bytes())
	}
	unknown := "j" + strings.Repeat("0", 16)
	if res := get(h, "/jobs/"+unknown+"/result"); res.Code != http.StatusNotFound {
		t.Fatalf("unknown id: code %d, want 404", res.Code)
	}
}

// TestTenantQuota pins per-tenant admission: one tenant at its quota is
// shed with 429 while other tenants sail through, dedup and cache hits are
// never charged, and finishing a job frees the slot.
func TestTenantQuota(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 8, TenantQuota: 1})
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	s.mgr.beforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	h := s.Handler()

	withTenant := func(spec exp.Spec, tenant string) *httptest.ResponseRecorder {
		b, _ := json.Marshal(spec)
		req := httptest.NewRequest("POST", "/jobs", bytes.NewReader(b))
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := withTenant(smallSpec(1), "alice"); rec.Code != http.StatusAccepted {
		t.Fatalf("alice #1: code %d body %s", rec.Code, rec.Body.Bytes())
	}
	rec := withTenant(smallSpec(2), "alice")
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), "tenant quota") {
		t.Fatalf("alice #2: code %d body %s, want 429 tenant quota", rec.Code, rec.Body.Bytes())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("tenant 429 missing Retry-After")
	}
	// Other tenants are unaffected; so is the anonymous tenant.
	if rec := withTenant(smallSpec(3), "bob"); rec.Code != http.StatusAccepted {
		t.Fatalf("bob: code %d body %s", rec.Code, rec.Body.Bytes())
	}
	if rec := withTenant(smallSpec(4), ""); rec.Code != http.StatusAccepted {
		t.Fatalf("anonymous: code %d body %s", rec.Code, rec.Body.Bytes())
	}
	// Dedup onto alice's own in-flight job is free, not a quota violation.
	if rec := withTenant(smallSpec(1), "alice"); rec.Code != http.StatusAccepted {
		t.Fatalf("alice dedup: code %d body %s", rec.Code, rec.Body.Bytes())
	}

	free()
	var st JobStatus
	json.Unmarshal(withTenant(smallSpec(1), "alice").Body.Bytes(), &st)
	waitState(t, s.mgr.Get(st.ID), StateDone)
	// Slot freed: alice can admit a new spec again.
	deadline := time.Now().Add(15 * time.Second)
	for {
		rec := withTenant(smallSpec(5), "alice")
		if rec.Code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alice still over quota after her job finished: code %d body %s", rec.Code, rec.Body.Bytes())
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(get(h, "/metrics").Body.String(), "hostnetd_tenants_rejected_total 1") {
		t.Error("metrics missing hostnetd_tenants_rejected_total 1")
	}
}

// TestBatchSubmit pins the batch endpoint: per-item admission with
// per-item outcomes, one bad spec not poisoning the rest.
func TestBatchSubmit(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	h := s.Handler()
	body, _ := json.Marshal(struct {
		Specs []exp.Spec `json:"specs"`
	}{[]exp.Spec{smallSpec(1), smallSpec(1), {Experiment: "nope"}}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("batch: code %d body %s", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Admitted int         `json:"admitted"`
		Jobs     []batchItem `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("batch response: %v", err)
	}
	if resp.Admitted != 2 || len(resp.Jobs) != 3 {
		t.Fatalf("admitted %d of %d items, want 2 of 3", resp.Admitted, len(resp.Jobs))
	}
	if resp.Jobs[0].Outcome != "accepted" {
		t.Errorf("item 0 outcome %q, want accepted", resp.Jobs[0].Outcome)
	}
	if o := resp.Jobs[1].Outcome; o != "deduplicated" && o != "cache_hit" {
		t.Errorf("item 1 outcome %q, want deduplicated or cache_hit", o)
	}
	if resp.Jobs[2].SubmitError == "" || resp.Jobs[2].ID != "" {
		t.Errorf("item 2 = %+v, want submit_error and no job", resp.Jobs[2])
	}
	waitState(t, s.mgr.Get(resp.Jobs[0].ID), StateDone)

	if rec := httptest.NewRecorder(); true {
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs/batch", strings.NewReader(`{"specs":[]}`)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("empty batch: code %d, want 400", rec.Code)
		}
	}
}

// TestWarm pins the cache-warming path: a warm pass simulates each spec
// once, a second pass is all hits, and the results land in the store so
// the warmth survives a restart.
func TestWarm(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 2, Store: openStore(t, dir)})
	var ran atomic.Int64
	s.mgr.beforeRun = func(context.Context, *Job) { ran.Add(1) }
	suite := []exp.Spec{smallSpec(1), smallSpec(2)}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if done, failed := s.Warm(ctx, suite); done != 2 || failed != 0 {
		t.Fatalf("cold warm: done=%d failed=%d, want 2/0", done, failed)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("cold warm ran %d jobs, want 2", got)
	}
	if done, failed := s.Warm(ctx, suite); done != 2 || failed != 0 {
		t.Fatalf("rewarm: done=%d failed=%d, want 2/0", done, failed)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("rewarm re-ran jobs: %d total, want still 2", got)
	}
	if done, failed := s.Warm(ctx, []exp.Spec{{Experiment: "nope"}}); done != 0 || failed != 1 {
		t.Fatalf("invalid warm spec: done=%d failed=%d, want 0/1", done, failed)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// A fresh daemon on the same store directory is warm from birth.
	s2 := testServer(t, Config{Workers: 2, Store: openStore(t, dir)})
	var ran2 atomic.Int64
	s2.mgr.beforeRun = func(context.Context, *Job) { ran2.Add(1) }
	if done, failed := s2.Warm(ctx, suite); done != 2 || failed != 0 {
		t.Fatalf("post-restart warm: done=%d failed=%d, want 2/0", done, failed)
	}
	if got := ran2.Load(); got != 0 {
		t.Fatalf("post-restart warm ran %d jobs, want 0 (store hits)", got)
	}
}
