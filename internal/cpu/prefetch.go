package cpu

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// Prefetcher models the core's L2 hardware stream prefetcher. The paper runs
// its application experiments with prefetching on and its quadrant
// characterization with it off, reporting (§2.1, §2.2) that prefetching
// improves sequential C2M throughput in both isolated and colocated runs but
// leaves the degradation *ratio* roughly unchanged, and has <5% effect on
// random-access workloads.
//
// Mechanics: the prefetcher watches the demand-miss stream; after Trigger
// consecutive +1-line strides it runs Depth lines ahead of the demand
// stream, issuing reads through its own slot pool (separate from the LFB, as
// L2 prefetches are on real cores). A demand access that hits a completed
// prefetch finishes at L2-hit latency instead of going to memory; one that
// hits an in-flight prefetch waits for it.
type Prefetcher struct {
	// Slots bounds in-flight prefetches (0 disables prefetching).
	Slots int
	// Depth is how many lines ahead of the demand stream to run.
	Depth int
	// Trigger is the consecutive-stride count that arms the stream.
	Trigger int
	// HitLatency is the completion latency for a demand hit on prefetched
	// data (an L2 hit).
	HitLatency sim.Time

	lastAddr mem.Addr
	streak   int
	armed    bool
	nextPF   mem.Addr

	inflight map[mem.Addr]bool
	ready    map[mem.Addr]bool
	// readyOrder remembers completion order of the ready set so capacity
	// eviction is deterministic (oldest first). Iterating the map to pick a
	// victim would leak Go's randomized map order into simulation output.
	readyOrder []mem.Addr
	readyHead  int
	free       int
	// issue is observe's result, reused across calls.
	issue []mem.Addr
}

// DefaultPrefetcher returns an L2-stream-prefetcher-like configuration.
func DefaultPrefetcher() *Prefetcher {
	return &Prefetcher{
		Slots:      16,
		Depth:      24,
		Trigger:    3,
		HitLatency: 14 * sim.Nanosecond,
	}
}

func (p *Prefetcher) init() {
	if p.inflight == nil {
		p.inflight = make(map[mem.Addr]bool)
		p.ready = make(map[mem.Addr]bool)
		p.free = p.Slots
	}
}

// enabled reports whether the prefetcher is active.
func (p *Prefetcher) enabled() bool { return p != nil && p.Slots > 0 }

// observe trains on a demand access and returns the prefetch addresses to
// issue now. The slice is valid until the next call.
func (p *Prefetcher) observe(a mem.Addr) []mem.Addr {
	p.init()
	if a == p.lastAddr+mem.LineSize {
		p.streak++
	} else if a != p.lastAddr {
		p.streak = 0
		p.armed = false
	}
	p.lastAddr = a
	if !p.armed && p.streak >= p.Trigger {
		p.armed = true
		p.nextPF = a + mem.LineSize
	}
	if !p.armed {
		return nil
	}
	out := p.issue[:0]
	limit := a + mem.Addr(p.Depth+1)*mem.LineSize
	for p.free > 0 && p.nextPF <= limit {
		addr := p.nextPF
		p.nextPF += mem.LineSize
		if p.ready[addr] || p.inflight[addr] {
			continue
		}
		p.inflight[addr] = true
		p.free--
		out = append(out, addr)
	}
	p.issue = out
	return out
}

// lookup classifies a demand access against the prefetch state.
type pfState uint8

const (
	pfMiss pfState = iota
	pfReady
	pfInflight
)

func (p *Prefetcher) lookup(a mem.Addr) pfState {
	if !p.enabled() {
		return pfMiss
	}
	p.init()
	if p.ready[a] {
		delete(p.ready, a)
		return pfReady
	}
	if p.inflight[a] {
		return pfInflight
	}
	return pfMiss
}

// complete records a finished prefetch.
func (p *Prefetcher) complete(a mem.Addr) {
	if p.inflight[a] {
		delete(p.inflight, a)
		p.free++
		p.ready[a] = true
		p.readyOrder = append(p.readyOrder, a)
		// Entries consumed by lookup stay in readyOrder as tombstones; drop
		// any at the front so the order list tracks the live ready set
		// instead of growing for the whole run.
		p.pruneReadyOrder()
		// Cap the ready set: evict the oldest unconsumed line (the tiny L2
		// footprint of prefetched-but-unconsumed lines). Iterating the map to
		// pick a victim would leak Go's randomized map order into simulation
		// output; completion order is deterministic.
		for len(p.ready) > 4*p.Slots && p.readyHead < len(p.readyOrder) {
			victim := p.readyOrder[p.readyHead]
			p.readyHead++
			delete(p.ready, victim)
			p.pruneReadyOrder()
		}
	}
}

// pruneReadyOrder advances past tombstones and compacts the backing array
// once the dead prefix dominates, keeping the order list O(live entries).
func (p *Prefetcher) pruneReadyOrder() {
	for p.readyHead < len(p.readyOrder) && !p.ready[p.readyOrder[p.readyHead]] {
		p.readyHead++
	}
	if p.readyHead > 64 && p.readyHead > len(p.readyOrder)/2 {
		n := copy(p.readyOrder, p.readyOrder[p.readyHead:])
		p.readyOrder = p.readyOrder[:n]
		p.readyHead = 0
	}
}
