package exp

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"

	"repro/internal/host"
	"repro/internal/sim"
)

// RunCache shares one-host run measurements across experiments and jobs.
// The paper scores every colocation point against C2M-alone and P2M-alone
// baselines that depend only on direction, core count and testbed, so a
// daemon answering point specs one at a time would otherwise re-simulate
// the same baselines for every point. quadrantRun and rdmaBaseline consult
// the cache through Options.Runs; a nil cache simulates every run, except
// within one call of a four-quadrant figure, which gets a private cache.
//
// Sharing cannot change a byte of any result: a run is deterministic, and
// its key covers every input it reads — the complete host.Config it builds
// from, the warmup and window, the normalized runKey (which fixes the
// workloads attached), and the P2M device kind.
//
// The cache is an LRU of at most runCacheCap runs. Concurrent lookups of a
// missing run simulate it once: the first caller runs it, the others wait
// for that result. A run that panics is not cached; its waiters then run
// it themselves. The cached function never consults the cache, so waits
// cannot form a cycle.
type RunCache struct {
	mu      sync.Mutex
	entries map[runCacheKey]*runEntry // cached and in-flight runs
	lru     *list.List                // cached runs, most recently used at front
	stats   RunCacheStats
}

// runCacheCap bounds a RunCache. A Measure is 400 bytes, so a full cache
// holds well under 1 MiB.
const runCacheCap = 1024

// RunCacheStats counts a RunCache's lookups: Hits found the run cached,
// Waits found it in flight and waited for it, Misses simulated it.
// Evictions counts runs dropped to stay under the cap, Entries the runs
// held now.
type RunCacheStats struct {
	Hits, Waits, Misses, Evictions int64
	Entries                        int
}

type runCacheKey struct {
	config         [sha256.Size]byte // of the host.Config the run builds from
	warmup, window sim.Time
	run            runKey
	nic            bool // the P2M device is the RDMA NIC, not bulk storage
}

type runEntry struct {
	key  runCacheKey
	done chan struct{} // closed when the run returns or panics
	m    Measure
	ok   bool          // m holds the run's measurement; set before done closes
	elem *list.Element // the entry's LRU slot once cached
}

// NewRunCache returns an empty cache.
func NewRunCache() *RunCache {
	return &RunCache{entries: make(map[runCacheKey]*runEntry), lru: list.New()}
}

// Stats returns the cache's counters.
func (c *RunCache) Stats() RunCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// oneHostRun measures one run on a host built from the options' config:
// from o.Runs when an earlier lookup already ran it, else by calling run on
// a fresh host. k and nic must determine everything run attaches to the
// host and how it runs it. The key hashes the same config value the host is
// built from, never a preset name: experiments rewrite Options.Preset and
// DDIO internally.
func (o Options) oneHostRun(k runKey, nic bool, run func(h *host.Host) Measure) Measure {
	cfg := o.hostConfig()
	if o.Runs == nil {
		return run(host.New(cfg))
	}
	desc := fmt.Sprintf("%#v", cfg)
	if strings.Contains(desc, ")(0x") {
		// A non-nil pointer prints as its address, which is no key: a
		// later value can reuse the address after a collection.
		return run(host.New(cfg))
	}
	key := runCacheKey{config: sha256.Sum256([]byte(desc)), warmup: o.Warmup, window: o.Window, run: k, nic: nic}
	return o.Runs.measure(key, func() Measure { return run(host.New(cfg)) })
}

// measure returns the keyed run's measurement, calling run at most once
// across concurrent lookups.
func (c *RunCache) measure(k runCacheKey, run func() Measure) Measure {
	for {
		c.mu.Lock()
		e, ok := c.entries[k]
		switch {
		case !ok:
			e = &runEntry{key: k, done: make(chan struct{})}
			c.entries[k] = e
			c.stats.Misses++
			c.mu.Unlock()
			c.fill(e, run)
			return e.m
		case e.elem != nil:
			c.lru.MoveToFront(e.elem)
			c.stats.Hits++
			m := e.m
			c.mu.Unlock()
			return m
		}
		c.stats.Waits++
		c.mu.Unlock()
		<-e.done
		if e.ok {
			return e.m
		}
		// The run panicked and left nothing cached: look up again, and run
		// it here unless another waiter already has.
	}
}

// fill runs e's simulation on the calling goroutine and caches the result.
// A panicking run drops its entry, wakes its waiters and keeps panicking up
// this goroutine.
func (c *RunCache) fill(e *runEntry, run func() Measure) {
	defer func() {
		c.mu.Lock()
		if e.ok {
			e.elem = c.lru.PushFront(e)
			for c.lru.Len() > runCacheCap {
				old := c.lru.Remove(c.lru.Back()).(*runEntry)
				delete(c.entries, old.key)
				c.stats.Evictions++
			}
		} else {
			delete(c.entries, e.key)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	e.m = run()
	e.ok = true
}
