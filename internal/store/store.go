// Package store is hostnetd's persistent content-addressed result store:
// canonical-spec SHA-256 -> checksummed result bytes, on disk, shareable
// across a fleet of daemons pointed at a common directory.
//
// Determinism makes every result a pure function of its spec (the
// byte-identity tests in internal/exp pin this), so the store needs no
// coherence protocol: any writer storing under a key writes the same bytes
// as any other, and last-rename-wins is indistinguishable from
// first-write-wins. The store only has to guarantee that what it serves is
// exactly what was stored:
//
//   - Writes are crash-atomic: payloads land in a temp file in the store
//     directory, are fsynced, and are renamed into place. A crash between
//     write and rename leaves only a temp file, which the next Open sweeps
//     away; a reader never observes a half-written entry under its key.
//   - Entries are framed with a magic, the payload length, and a SHA-256 of
//     the payload. A flipped bit or a truncated tail fails verification on
//     read; the damaged file is quarantined (moved aside, never deleted, so
//     operators can inspect it) and the lookup reports a miss — corruption
//     is re-simulated around, never served.
//   - The index is rebuilt by directory scan on Open, so the store survives
//     restarts with no journal to replay.
//   - Capacity is a payload-byte cap enforced by GC in last-access order
//     (access times persist via file mtimes, so the order survives
//     restarts too).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Entry framing: magic | 8-byte big-endian payload length | 32-byte
// SHA-256 of the payload | payload.
const (
	magic      = "HNR1"
	headerSize = len(magic) + 8 + sha256.Size
)

// quarantineDir is the subdirectory damaged entries are moved into.
const quarantineDir = "quarantine"

// tmpPrefix marks in-progress writes; Open removes leftovers.
const tmpPrefix = ".tmp-"

// PrefixLen is how many leading hex digits of a key hostnetd's job IDs
// carry. KeyFor resolves such a prefix to the full key.
const PrefixLen = 16

// Config tunes a store. The zero value is usable.
type Config struct {
	// MaxBytes caps the total payload bytes held before GC evicts
	// least-recently-accessed entries. 0 means the 1 GiB default; negative
	// disables the cap.
	MaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxBytes == 0 {
		c.MaxBytes = 1 << 30
	}
	return c
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries     int   // entries currently indexed
	Bytes       int64 // payload bytes currently indexed
	Hits        int64 // Gets served
	Misses      int64 // Gets that found nothing (or only damage)
	Puts        int64 // Puts that wrote a new entry
	PutNoops    int64 // Puts that found the entry already present
	Evictions   int64 // entries removed by GC
	GCBytes     int64 // payload bytes reclaimed by GC
	Quarantined int64 // damaged entries moved aside
	AtimeErrors int64 // access-time bumps that failed (GC order may go stale)
}

// entry is the in-memory index record for one stored result.
type entry struct {
	size  int64     // payload bytes
	atime time.Time // last access (mirrors file mtime)
}

// Store is an on-disk content-addressed result store. Safe for concurrent
// use; safe to share a directory with other Store instances in other
// processes (writers are atomic and idempotent, readers verify checksums).
type Store struct {
	dir string
	cfg Config

	mu       sync.Mutex
	idx      map[string]entry
	byPrefix map[string]string // key[:PrefixLen] -> key, for KeyFor
	bytes    int64

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	putNoops    atomic.Int64
	evictions   atomic.Int64
	gcBytes     atomic.Int64
	quarantined atomic.Int64
	atimeErrs   atomic.Int64

	atimeLogOnce sync.Once

	// chtimes bumps an entry's access time on Get; a func field so tests can
	// inject failures (the suite runs as root, where permission-based
	// injection does not bite).
	chtimes func(path string, atime, mtime time.Time) error

	// crashBeforeRename (tests only) makes Put stop after the temp file is
	// written and synced, simulating a kill before the rename commits.
	crashBeforeRename bool
}

// errCrashed is what Put reports under the crashBeforeRename test hook.
var errCrashed = errors.New("store: simulated crash before rename")

// Open creates (if needed) and indexes the store directory: valid-looking
// entries are indexed by filename, leftover temp files from interrupted
// writes are removed, and files too short to frame a payload are
// quarantined immediately. Payload checksums are verified lazily on Get,
// not here, so Open stays O(entries) in stat calls, not O(bytes).
func Open(dir string, cfg Config) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, cfg: cfg.withDefaults(), idx: make(map[string]entry), byPrefix: make(map[string]string), chtimes: os.Chtimes}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		switch {
		case de.IsDir():
			continue // quarantine/ and anything else foreign
		case strings.HasPrefix(name, tmpPrefix):
			// An interrupted write: the rename never committed, so the key
			// was never stored. Sweep it.
			os.Remove(filepath.Join(dir, name))
			continue
		case !validKey(name):
			continue // foreign file; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		if info.Size() < int64(headerSize) {
			// Cannot even hold a frame: damaged beyond lazy verification.
			s.quarantine(name)
			continue
		}
		s.addLocked(name, entry{size: info.Size() - int64(headerSize), atime: info.ModTime()})
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether a key is a well-formed content address: a
// lowercase hex SHA-256. Everything else is rejected so keys can never
// traverse outside the store directory.
func validKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the payload stored under key, or ok=false if the key is
// absent or the entry failed verification (in which case it has been
// quarantined). A hit refreshes the entry's access time, persisting the GC
// order across restarts via the file mtime.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, key)
	if _, ok := s.idx[key]; !ok {
		// Another process sharing the directory may have stored it after we
		// scanned; adopt the file if it appeared.
		info, err := os.Stat(path)
		if err != nil || info.Size() < int64(headerSize) {
			s.misses.Add(1)
			return nil, false
		}
		s.addLocked(key, entry{size: info.Size() - int64(headerSize), atime: info.ModTime()})
	}
	payload, err := readEntry(path)
	if err != nil {
		// Damaged: quarantine rather than serve, and forget the index slot
		// so the next Put can re-store a good copy.
		s.dropLocked(key)
		s.quarantine(key)
		s.misses.Add(1)
		return nil, false
	}
	now := time.Now()
	if err := s.chtimes(path, now, now); err != nil {
		// Serving the payload is still correct — only the persisted GC
		// recency order degrades toward scan-time mtimes. Count every
		// failure (hostnetd_store_atime_errors_total) but log just once:
		// a read-only or misbehaving filesystem would fail on every Get.
		s.atimeErrs.Add(1)
		s.atimeLogOnce.Do(func() {
			log.Printf("store: bumping access time of %s: %v (GC recency order may go stale; counting further failures silently)", key, err)
		})
	}
	e := s.idx[key]
	e.atime = now
	s.idx[key] = e
	s.hits.Add(1)
	return payload, true
}

// readEntry reads and verifies one entry file.
func readEntry(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := decodeFrame(b)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	return payload, nil
}

// frameHeader returns the header Put writes ahead of payload.
func frameHeader(payload []byte) [headerSize]byte {
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint64(hdr[len(magic):], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[len(magic)+8:], sum[:])
	return hdr
}

// decodeFrame verifies one framed entry and returns its payload, which
// aliases b.
func decodeFrame(b []byte) ([]byte, error) {
	if len(b) < headerSize || string(b[:len(magic)]) != magic {
		return nil, errors.New("bad frame")
	}
	n := binary.BigEndian.Uint64(b[len(magic) : len(magic)+8])
	payload := b[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload %d bytes, frame says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], b[len(magic)+8:headerSize]) {
		return nil, errors.New("payload checksum mismatch")
	}
	return payload, nil
}

// Put stores payload under key, atomically (temp file + rename) and
// idempotently: if the key is already present with the right size the call
// is a no-op — determinism guarantees the bytes match, so rewriting would
// only churn the disk.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.idx[key]; ok && e.size == int64(len(payload)) {
		s.putNoops.Add(1)
		return nil
	}
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	hdr := frameHeader(payload)
	_, werr := f.Write(hdr[:])
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", key, werr)
	}
	if s.crashBeforeRename {
		return errCrashed
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: committing %s: %w", key, err)
	}
	s.addLocked(key, entry{size: int64(len(payload)), atime: time.Now()}) // may replace a differently-sized (stale) entry
	s.puts.Add(1)
	s.gcLocked(key)
	return nil
}

// gcLocked evicts least-recently-accessed entries until the payload-byte
// total is back under the cap. The entry named keep (the one just stored)
// is never evicted, so a single oversized result is served at least once
// rather than thrashing.
func (s *Store) gcLocked(keep string) {
	if s.cfg.MaxBytes < 0 || s.bytes <= s.cfg.MaxBytes {
		return
	}
	type cand struct {
		key string
		entry
	}
	cands := make([]cand, 0, len(s.idx))
	for k, e := range s.idx {
		if k != keep {
			cands = append(cands, cand{k, e})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].atime.Equal(cands[j].atime) {
			return cands[i].atime.Before(cands[j].atime)
		}
		return cands[i].key < cands[j].key // deterministic tie-break
	})
	for _, c := range cands {
		if s.bytes <= s.cfg.MaxBytes {
			return
		}
		os.Remove(filepath.Join(s.dir, c.key))
		s.dropLocked(c.key)
		s.evictions.Add(1)
		s.gcBytes.Add(c.size)
	}
}

// addLocked indexes key, replacing any entry it already has.
func (s *Store) addLocked(key string, e entry) {
	s.dropLocked(key)
	s.idx[key] = e
	s.byPrefix[key[:PrefixLen]] = key
	s.bytes += e.size
}

// dropLocked forgets an index slot and its byte accounting.
func (s *Store) dropLocked(key string) {
	if e, ok := s.idx[key]; ok {
		s.bytes -= e.size
		delete(s.idx, key)
		if s.byPrefix[key[:PrefixLen]] == key {
			delete(s.byPrefix, key[:PrefixLen])
		}
	}
}

// KeyFor returns the indexed key whose first PrefixLen hex digits are
// prefix. It is one map lookup, so an unknown prefix costs no scan.
func (s *Store) KeyFor(prefix string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.byPrefix[prefix]
	return key, ok
}

// quarantine moves a damaged entry aside (best effort) so it is never
// served again but remains inspectable.
func (s *Store) quarantine(name string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	os.MkdirAll(qdir, 0o755)
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	if os.Rename(filepath.Join(s.dir, name), dst) == nil {
		s.quarantined.Add(1)
	}
}

// Len reports the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Bytes reports the indexed payload bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.idx), s.bytes
	s.mu.Unlock()
	return Stats{
		Entries:     entries,
		Bytes:       bytes,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		PutNoops:    s.putNoops.Load(),
		Evictions:   s.evictions.Load(),
		GCBytes:     s.gcBytes.Load(),
		Quarantined: s.quarantined.Load(),
		AtimeErrors: s.atimeErrs.Load(),
	}
}

// verifyAll re-reads and verifies every indexed entry (tests and offline
// fsck): damaged entries are quarantined and dropped. It returns the number
// quarantined.
func (s *Store) verifyAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.idx))
	for k := range s.idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if _, err := readEntry(filepath.Join(s.dir, k)); err != nil {
			s.dropLocked(k)
			s.quarantine(k)
			bad++
		}
	}
	return bad
}
