package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
)

// Pinned regressions for the job manager's byte accounting, the queue-full
// race in handleSubmit, and the slow-stream-consumer guarantee.

// A zero-byte result still costs the per-entry overhead, and removing the
// entry returns the cache to zero bytes.
func TestCacheBytesZeroByte(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	m := s.mgr

	j := newJob("jtest", exp.Spec{})
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.insertLocked(j, nil) // zero-byte result
	if m.lruBytes != jobOverheadBytes {
		m.mu.Unlock()
		t.Fatalf("zero-byte insert: lruBytes = %d, want %d", m.lruBytes, jobOverheadBytes)
	}
	m.removeLocked(j)
	if m.lruBytes != 0 {
		m.mu.Unlock()
		t.Fatalf("after remove: lruBytes = %d, want 0", m.lruBytes)
	}
	m.mu.Unlock()
}

// A job canceled while queued must end up accounted in the cache (and thus
// evictable) rather than leaking in the job table forever.
func TestCanceledQueuedJobIsCacheAccounted(t *testing.T) {
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
	close(block) // worker finishes A, then dequeues the canceled B

	deadline := time.Now().Add(15 * time.Second)
	for {
		entries, bytes := s.mgr.CacheStats()
		if entries == 2 { // A's result + B's canceled tombstone
			if want := int64(len(mustResult(t, h, stA.ID))) + 2*jobOverheadBytes; bytes != want {
				t.Fatalf("cache bytes = %d, want %d", bytes, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled-while-queued job never reached the cache (entries=%d)", entries)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustResult(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	res := get(h, "/jobs/"+id+"/result?wait=true")
	if res.Code != http.StatusOK {
		t.Fatalf("result %s: code %d body %s", id, res.Code, res.Body.Bytes())
	}
	// Trailing newline is transport framing, not cached bytes.
	return bytes.TrimSuffix(res.Body.Bytes(), []byte("\n"))
}

// A canceled-while-queued job that was already replaced by a resubmission
// must NOT re-enter the cache as a stale duplicate of the live record.
func TestCanceledQueuedStaleObjectNotReinserted(t *testing.T) {
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
	// Resubmit while the stale canceled object is still in the queue: the
	// fresh job replaces it in the job table.
	rec2, stB2 := postSpec(t, h, smallSpec(2))
	if rec2.Code != http.StatusAccepted || stB2.ID != stB.ID {
		t.Fatalf("resubmit: code %d id %s, want fresh accept at same address", rec2.Code, stB2.ID)
	}
	close(block)
	// Both jobs complete; the stale object is discarded without touching
	// the live record.
	if res := get(h, "/jobs/"+stB2.ID+"/result?wait=true"); res.Code != http.StatusOK {
		t.Fatalf("resubmitted job result: code %d body %s", res.Code, res.Body.Bytes())
	}
	if st := s.mgr.Get(stB2.ID).State(); st != StateDone {
		t.Fatalf("live job state %v, want done", st)
	}
	entries, _ := s.mgr.CacheStats()
	if entries != 2 { // A + B2, no tombstone for the stale B
		t.Fatalf("cache entries = %d, want 2", entries)
	}
}

// handleSubmit must not return 429 when the queue drains between the failed
// admission and the response: it retries once, and the retry lands.
func TestSubmitRetriesWhenQueueDrains(t *testing.T) {
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
	_, stB := postSpec(t, h, smallSpec(2))        // fills the queue

	// Between C's failed admission and its 429, drain the queue: unblock
	// the worker and wait until B has been dequeued.
	s.retryHook = func() {
		close(block)
		deadline := time.Now().Add(15 * time.Second)
		for s.mgr.QueueDepth() > 0 {
			if time.Now().After(deadline) {
				t.Error("queue never drained")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	recC, stC := postSpec(t, h, smallSpec(3))
	if recC.Code != http.StatusAccepted {
		t.Fatalf("submit into drained queue: code %d, want 202; body %s", recC.Code, recC.Body.Bytes())
	}
	if got := s.met.rejected.Load(); got != 0 {
		t.Fatalf("rejected counter = %d after a benign race, want 0", got)
	}
	for _, id := range []string{stB.ID, stC.ID} {
		if res := get(h, "/jobs/"+id+"/result?wait=true"); res.Code != http.StatusOK {
			t.Fatalf("job %s: code %d", id, res.Code)
		}
	}
}

// Racing submissions against a draining queue: every 429 that does escape
// must carry a parseable positive Retry-After, and every accepted job must
// finish.
func TestRetryAfterHeaderUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	s := testServer(t, Config{Workers: 1, QueueDepth: 1})
	h := s.Handler()

	const n = 24
	var wg sync.WaitGroup
	codes := make([]int, n)
	retryAfter := make([]string, n)
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct content addresses without exceeding the testbed's
			// core count: vary the measurement window.
			spec := smallSpec(i%4 + 1)
			spec.WindowNs = 2000 + int64(i)
			rec, st := postSpec(t, h, spec)
			codes[i], ids[i] = rec.Code, st.ID
			retryAfter[i] = rec.Result().Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		switch codes[i] {
		case http.StatusAccepted, http.StatusOK:
			if res := get(h, "/jobs/"+ids[i]+"/result?wait=true"); res.Code != http.StatusOK {
				t.Errorf("accepted job %d: result code %d", i, res.Code)
			}
		case http.StatusTooManyRequests:
			sec, err := strconv.Atoi(retryAfter[i])
			if err != nil || sec < 1 || sec > 60 {
				t.Errorf("429 %d: Retry-After %q outside the pinned [1, 60]s clamp", i, retryAfter[i])
			}
		default:
			t.Errorf("submit %d: unexpected code %d", i, codes[i])
		}
	}
}

// bumpProgress is called from sweep pool workers; a subscriber that never
// reads its channel must not block it (pokes are buffered and coalesced).
// Run with -race: this also pins the locking around the subscriber map.
func TestBumpProgressNeverBlocksOnStalledSubscriber(t *testing.T) {
	j := newJob("jstall", exp.Spec{})
	stalled := j.subscribe() // never read
	defer j.unsubscribe(stalled)

	const workers, bumps = 8, 500
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < bumps; i++ {
					j.bumpProgress()
				}
			}()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("bumpProgress blocked on a stalled subscriber")
	}
	if got := j.PointsDone(); got != workers*bumps {
		t.Fatalf("points = %d, want %d", got, workers*bumps)
	}
	if len(stalled) != 1 {
		t.Fatalf("stalled subscriber holds %d pokes, want exactly 1 (coalesced)", len(stalled))
	}
}

// A streaming client that stops reading must not stall the job: progress
// delivery is decoupled from the HTTP write path.
func TestStreamSlowConsumerJobStillCompletes(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	s.mgr.beforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smallSpec(1)
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	stream, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no status event: %v", sc.Err())
	}

	// Stop reading the stream entirely, release the job, and require it to
	// reach a terminal state on its own.
	close(gate)
	waitState(t, s.mgr.Get(st.ID), StateDone)

	// The stalled consumer can still catch up afterwards: the final event
	// is the done event with the result inline.
	var last struct {
		Event string `json:"event"`
		State string `json:"state"`
	}
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %s: %v", sc.Bytes(), err)
		}
	}
	if last.Event != "done" || last.State != "done" {
		t.Fatalf("final event %+v, want done/done", last)
	}
}

// A client woken by a job's terminal transition must observe every side
// effect of it: the tenant slot free, the job counted as finished, and a
// crossval job's points in the report. A client that resubmits or reads
// GET /crossval right after ?wait=true returns relies on this.
func TestTerminalSideEffectsPrecedeWake(t *testing.T) {
	s := testServer(t, Config{Workers: 1, TenantQuota: 1})
	for i := 1; i <= 20; i++ {
		spec := exp.Spec{Experiment: "crossval", Quadrant: 1, Cores: []int{1}, WarmupNs: 1000, WindowNs: 1000 + int64(i)}.Normalized()
		canonical, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := s.mgr.Submit(spec, canonical, "t")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-j.Done()
		if got := s.mgr.tenantInFlight("t"); got != 0 {
			t.Fatalf("job %d: tenant holds %d slots after wake, want 0", i, got)
		}
		if got := s.met.finished[StateDone].Load(); got != int64(i) {
			t.Fatalf("job %d: %d jobs counted finished after wake, want %d", i, got, i)
		}
		if got := s.mgr.cv.samples(); got != int64(i) {
			t.Fatalf("job %d: %d crossval samples after wake, want %d", i, got, i)
		}
	}

	// Cancel while queued: the slot is free by the time the job is done.
	block := make(chan struct{})
	s.mgr.beforeRun = func(ctx context.Context, j *Job) { <-block }
	defer close(block)
	running := submitSmall(t, s, smallSpec(1), "busy")
	waitState(t, running, StateRunning)
	queued := submitSmall(t, s, smallSpec(2), "t")
	go s.mgr.Cancel(queued, "test")
	<-queued.Done()
	if got := s.mgr.tenantInFlight("t"); got != 0 {
		t.Fatalf("tenant holds %d slots after cancel-while-queued wake, want 0", got)
	}
}

func submitSmall(t *testing.T, s *Server, spec exp.Spec, tenant string) *Job {
	t.Helper()
	n := spec.Normalized()
	canonical, err := n.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.mgr.Submit(n, canonical, tenant)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
