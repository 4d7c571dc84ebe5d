package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func keyOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{})
	payload := []byte(`{"spec":{"experiment":"fig3"},"result":[1,2,3]}`)
	key := keyOf([]byte("spec-canonical"))
	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	// Idempotent re-Put is a no-op.
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.PutNoops != 1 || st.Entries != 1 || st.Bytes != int64(len(payload)) {
		t.Fatalf("stats after idempotent re-put: %+v", st)
	}
}

func TestResultsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("r", 4096))
	key := keyOf(payload)
	s1 := mustOpen(t, dir, Config{})
	if err := s1.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	// A second Store over the same directory (a restarted daemon, or a
	// fleet peer) rebuilds the index by scan and serves the entry.
	s2 := mustOpen(t, dir, Config{})
	if got, ok := s2.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened store missed the entry (ok=%v)", ok)
	}
	if s2.Len() != 1 || s2.Bytes() != int64(len(payload)) {
		t.Fatalf("reopened accounting: %d entries, %d bytes", s2.Len(), s2.Bytes())
	}
}

// KeyFor resolves a key's PrefixLen-digit prefix to the key after Put and
// after a reopen, and no longer once GC has evicted the entry.
func TestKeyForPrefix(t *testing.T) {
	dir := t.TempDir()
	a, b := []byte(strings.Repeat("a", 100)), []byte(strings.Repeat("b", 100))
	ka, kb := keyOf(a), keyOf(b)
	s := mustOpen(t, dir, Config{MaxBytes: 150})
	if err := s.Put(ka, a); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, ok := s.KeyFor(ka[:PrefixLen]); !ok || got != ka {
		t.Fatalf("KeyFor after Put = %q, %v; want %s", got, ok, ka)
	}
	if got, ok := mustOpen(t, dir, Config{}).KeyFor(ka[:PrefixLen]); !ok || got != ka {
		t.Fatalf("KeyFor after reopen = %q, %v; want %s", got, ok, ka)
	}
	if err := s.Put(kb, b); err != nil { // over the cap: GC evicts a
		t.Fatalf("Put: %v", err)
	}
	if got, ok := s.KeyFor(ka[:PrefixLen]); ok {
		t.Fatalf("evicted key still resolves to %q", got)
	}
	if got, ok := s.KeyFor(kb[:PrefixLen]); !ok || got != kb {
		t.Fatalf("KeyFor after GC = %q, %v; want %s", got, ok, kb)
	}
	if got, ok := s.KeyFor(strings.Repeat("0", PrefixLen)); ok {
		t.Fatalf("unknown prefix resolves to %q", got)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{})
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), "../../../../etc/passwd",
		strings.Repeat("A", 64), // uppercase hex is not canonical
	} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit on an invalid key", key)
		}
	}
}

// TestCrashBetweenWriteAndRename simulates a kill after the temp file is
// fully written but before the rename commits: the key must not be served,
// restart must sweep the temp file, and a retried Put must succeed.
func TestCrashBetweenWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("p", 1000))
	key := keyOf(payload)

	s1 := mustOpen(t, dir, Config{})
	s1.crashBeforeRename = true
	if err := s1.Put(key, payload); err != errCrashed {
		t.Fatalf("Put under crash hook = %v, want errCrashed", err)
	}
	// The temp file exists; the entry does not.
	if n := countTemps(t, dir); n != 1 {
		t.Fatalf("temp files after crash = %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, key)); !os.IsNotExist(err) {
		t.Fatalf("entry file exists despite crash (err=%v)", err)
	}

	// "Restart": a fresh Open recovers the index and sweeps the leftover.
	s2 := mustOpen(t, dir, Config{})
	if n := countTemps(t, dir); n != 0 {
		t.Fatalf("temp files after reopen = %d, want 0", n)
	}
	if _, ok := s2.Get(key); ok {
		t.Fatal("partial write was served after restart")
	}
	if err := s2.Put(key, payload); err != nil {
		t.Fatalf("retried Put: %v", err)
	}
	if got, ok := s2.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("retried Put not served")
	}
}

func countTemps(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			n++
		}
	}
	return n
}

// TestCorruptionQuarantined flips every byte position of a stored entry in
// turn (header and payload alike) and requires that the damaged file is
// never served: the frame or checksum check fails, the file is moved to
// quarantine/, and the slot reads as a miss.
func TestCorruptionQuarantined(t *testing.T) {
	payload := []byte(`{"spec":{"experiment":"rdma"},"result":[{"Cores":2}]}`)
	key := keyOf(payload)
	fileLen := headerSize + len(payload)

	rng := rand.New(rand.NewSource(1))
	positions := []int{0, 3, 4, 11, 12, 43, headerSize, fileLen - 1} // frame corners
	for i := 0; i < 24; i++ {
		positions = append(positions, rng.Intn(fileLen))
	}
	for _, pos := range positions {
		t.Run(fmt.Sprintf("flip@%d", pos), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Config{})
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[pos] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			// Reopen so the lazily-verified entry is re-read from disk.
			s2 := mustOpen(t, dir, Config{})
			if _, ok := s2.Get(key); ok {
				t.Fatalf("flipped byte at %d was served", pos)
			}
			if st := s2.Stats(); st.Quarantined != 1 {
				t.Fatalf("quarantined = %d, want 1 (stats %+v)", st.Quarantined, st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged file still in place (err=%v)", err)
			}
			qents, _ := os.ReadDir(filepath.Join(dir, quarantineDir))
			if len(qents) != 1 {
				t.Fatalf("quarantine holds %d files, want 1", len(qents))
			}
			// The slot is reusable: a fresh Put stores a good copy.
			if err := s2.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s2.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatal("re-stored entry not served after quarantine")
			}
		})
	}
}

// TestTruncationDetected cuts a stored entry short at several lengths; a
// truncated file must never be served.
func TestTruncationDetected(t *testing.T) {
	payload := []byte(strings.Repeat("z", 500))
	key := keyOf(payload)
	for _, keep := range []int{0, 1, headerSize - 1, headerSize, headerSize + 250, headerSize + 499} {
		dir := t.TempDir()
		s := mustOpen(t, dir, Config{})
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(filepath.Join(dir, key), int64(keep)); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, dir, Config{})
		if _, ok := s2.Get(key); ok {
			t.Fatalf("entry truncated to %d bytes was served", keep)
		}
	}
}

// TestGCAccounting is the byte-accounting regression test: through a
// sequence of puts, hits, and evictions, Stats.Bytes must equal the sum of
// the payload sizes actually held, the cap must be enforced, eviction must
// follow last-access order, and a reopened store must agree with the
// directory contents.
func TestGCAccounting(t *testing.T) {
	dir := t.TempDir()
	const cap = 10_000
	s := mustOpen(t, dir, Config{MaxBytes: cap})

	payload := func(i, size int) (string, []byte) {
		b := bytes.Repeat([]byte{byte('a' + i)}, size)
		return keyOf(b), b
	}
	// Four 3 KB entries: the fourth put overflows the 10 KB cap and must
	// evict exactly the least-recently-accessed one.
	var keys []string
	for i := 0; i < 3; i++ {
		k, b := payload(i, 3000)
		keys = append(keys, k)
		if err := s.Put(k, b); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct mtimes for atime order
	}
	// Touch entry 0 so entry 1 is now the LRU victim.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("touch miss")
	}
	time.Sleep(2 * time.Millisecond)
	k3, b3 := payload(3, 3000)
	keys = append(keys, k3)
	if err := s.Put(k3, b3); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Evictions != 1 || st.GCBytes != 3000 {
		t.Fatalf("evictions=%d gcBytes=%d, want 1/3000 (stats %+v)", st.Evictions, st.GCBytes, st)
	}
	if st.Entries != 3 || st.Bytes != 9000 {
		t.Fatalf("entries=%d bytes=%d, want 3/9000", st.Entries, st.Bytes)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("LRU victim (entry 1) still served; eviction order wrong")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("surviving entry %s evicted", k[:8])
		}
	}

	// Accounting must match the directory both live and after reopen.
	checkDirMatches := func(st Stats) {
		t.Helper()
		var disk int64
		n := 0
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if e.IsDir() || !validKey(e.Name()) {
				continue
			}
			info, _ := e.Info()
			disk += info.Size() - int64(headerSize)
			n++
		}
		if int64(st.Bytes) != disk || st.Entries != n {
			t.Fatalf("accounting (%d entries, %d bytes) disagrees with directory (%d, %d)",
				st.Entries, st.Bytes, n, disk)
		}
	}
	checkDirMatches(s.Stats())
	s2 := mustOpen(t, dir, Config{MaxBytes: cap})
	checkDirMatches(s2.Stats())
	if s2.Bytes() > cap {
		t.Fatalf("reopened store over cap: %d > %d", s2.Bytes(), cap)
	}
}

// TestGCNeverEvictsFreshOversized pins the single-oversized-result policy:
// an entry larger than the whole cap is stored (and evicts everything
// else) rather than thrashing.
func TestGCNeverEvictsFreshOversized(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{MaxBytes: 1000})
	small := bytes.Repeat([]byte("s"), 100)
	big := bytes.Repeat([]byte("b"), 5000)
	if err := s.Put(keyOf(small), small); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyOf(big), big); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keyOf(big)); !ok {
		t.Fatal("oversized entry evicted on insert")
	}
	if _, ok := s.Get(keyOf(small)); ok {
		t.Fatal("small entry survived a GC that had to reclaim everything")
	}
}

// TestUnlimitedCap pins that a negative MaxBytes disables GC.
func TestUnlimitedCap(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{MaxBytes: -1})
	for i := 0; i < 8; i++ {
		b := bytes.Repeat([]byte{byte(i)}, 4096)
		if err := s.Put(keyOf(b), b); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 8 {
		t.Fatalf("unlimited store evicted: %+v", st)
	}
}

// TestConcurrentAccess hammers one store from many goroutines (the race
// tier runs this under -race): concurrent Puts of the same and different
// keys, Gets, and Stats must stay consistent.
func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{MaxBytes: 50_000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				b := bytes.Repeat([]byte{byte(i % 10)}, 500+(i%10))
				k := keyOf(b)
				if err := s.Put(k, b); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := s.Get(k); ok && !bytes.Equal(got, b) {
					t.Errorf("Get returned wrong bytes")
					return
				}
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if bad := s.verifyAll(); bad != 0 {
		t.Fatalf("verifyAll quarantined %d entries after concurrent churn", bad)
	}
}

// A failing access-time bump must not fail the Get — the payload is fine,
// only the persisted GC recency order degrades — but it must be counted
// (hostnetd_store_atime_errors_total), never swallowed. The chtimes hook
// injects the failure because the suite runs as root, where permission
// tricks do not bite.
func TestAtimeBumpFailureCountedNotFatal(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{})
	payload := []byte(strings.Repeat("a", 512))
	key := keyOf(payload)
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.chtimes = func(string, time.Time, time.Time) error {
		return fmt.Errorf("injected: read-only filesystem")
	}
	for i := 0; i < 3; i++ {
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Get %d under failing chtimes = %q, %v; the payload must still be served", i, got, ok)
		}
	}
	st := s.Stats()
	if st.AtimeErrors != 3 {
		t.Fatalf("AtimeErrors = %d after 3 failing bumps, want 3", st.AtimeErrors)
	}
	if st.Hits != 3 {
		t.Fatalf("Hits = %d, want 3 (bump failure must not demote the hit)", st.Hits)
	}
}

// The reason the bump exists at all: access recency persists via file
// mtimes, so after a restart GC must evict the key that was NOT read in
// the previous life, even though it was written later. This pins the
// restart GC order against the in-memory atime order.
func TestGCOrderSurvivesRestartViaAtimeBump(t *testing.T) {
	dir := t.TempDir()
	cold := []byte(strings.Repeat("c", 600))
	warm := []byte(strings.Repeat("w", 600))
	coldKey, warmKey := keyOf(cold), keyOf(warm)

	s1 := mustOpen(t, dir, Config{MaxBytes: 2000})
	if err := s1.Put(warmKey, warm); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(coldKey, cold); err != nil {
		t.Fatal(err)
	}
	// Push both mtimes into the past, cold newer than warm on disk: if the
	// Get bump below were lost, a restarted GC would evict warm first.
	past := time.Now().Add(-2 * time.Hour)
	for key, mt := range map[string]time.Time{warmKey: past, coldKey: past.Add(time.Minute)} {
		if err := os.Chtimes(filepath.Join(dir, key), mt, mt); err != nil {
			t.Fatalf("arranging mtimes: %v", err)
		}
	}
	if _, ok := s1.Get(warmKey); !ok { // bumps warm's mtime to now
		t.Fatal("warm key vanished")
	}

	s2 := mustOpen(t, dir, Config{MaxBytes: 2000}) // restart: order rebuilt from mtimes
	filler := []byte(strings.Repeat("f", 1200))
	if err := s2.Put(keyOf(filler), filler); err != nil { // forces GC of one old entry
		t.Fatal(err)
	}
	if _, ok := s2.Get(warmKey); !ok {
		t.Fatal("recently accessed key evicted after restart: the atime bump did not persist")
	}
	if _, ok := s2.Get(coldKey); ok {
		t.Fatal("cold key survived GC ahead of the accessed one: wrong eviction order")
	}
}

// The degradation when bumps fail, pinned: recency falls back to write
// order, so the previously read key is evicted like any other old entry.
// This is what hostnetd_store_atime_errors_total warns about.
func TestGCOrderDegradesWhenBumpFails(t *testing.T) {
	dir := t.TempDir()
	cold := []byte(strings.Repeat("c", 600))
	warm := []byte(strings.Repeat("w", 600))
	coldKey, warmKey := keyOf(cold), keyOf(warm)

	s1 := mustOpen(t, dir, Config{MaxBytes: 2000})
	s1.chtimes = func(string, time.Time, time.Time) error {
		return fmt.Errorf("injected: bump lost")
	}
	if err := s1.Put(warmKey, warm); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(coldKey, cold); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-2 * time.Hour)
	for key, mt := range map[string]time.Time{warmKey: past, coldKey: past.Add(time.Minute)} {
		if err := os.Chtimes(filepath.Join(dir, key), mt, mt); err != nil {
			t.Fatalf("arranging mtimes: %v", err)
		}
	}
	if _, ok := s1.Get(warmKey); !ok {
		t.Fatal("warm key vanished")
	}
	if got := s1.Stats().AtimeErrors; got != 1 {
		t.Fatalf("AtimeErrors = %d, want 1", got)
	}

	s2 := mustOpen(t, dir, Config{MaxBytes: 2000})
	filler := []byte(strings.Repeat("f", 1200))
	if err := s2.Put(keyOf(filler), filler); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(warmKey); ok {
		t.Fatal("warm key survived: the failed bump unexpectedly persisted recency")
	}
}
