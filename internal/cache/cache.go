// Package cache models the last-level cache as seen by the host network.
//
// The paper's workloads are deliberately non-cache-resident (~100% LLC miss
// even in isolation), so the LLC matters for exactly two things, and that is
// all this package models:
//
//  1. DDIO (Data Direct I/O): P2M traffic may use a small number of LLC ways.
//     Large sequential DMA buffers thrash those ways, so in steady state
//     every DMA write allocates a line and evicts a dirty one — memory write
//     bandwidth is unchanged (matching §2.1), but eviction-driven writebacks
//     replace the original-address writes.
//  2. A probabilistic hit model for C2M traffic, default 0% (the measured
//     miss ratios in the paper are >95%).
//
// The paper observes but cannot explain that enabling DDIO *worsens* C2M
// degradation for P2M-write workloads (§2.1, Appendix B). We reproduce the
// observation under a documented hypothesis: LLC set-index hashing scrambles
// the eviction order relative to DRAM row order, lowering the row locality
// of the P2M write stream. The swizzle is explicit and configurable so the
// hypothesis can be ablated.
package cache

import (
	"repro/internal/mem"
)

// DDIOConfig sizes the DDIO-usable slice of the LLC.
type DDIOConfig struct {
	Enabled bool
	Sets    int // power of two
	Ways    int // DDIO-usable ways (2 on the testbeds)
	// ScrambleEvictions applies the set-hash swizzle to evicted writeback
	// addresses (the modeling hypothesis for Fig 2's DDIO-on penalty).
	ScrambleEvictions bool
}

// DefaultDDIOConfig models 2 ways of a 24 MB / 11-way LLC: 2048 sets kept
// deliberately small (the region is thrashed regardless; a smaller table is
// cheaper to simulate and behaves identically for streams ≫ region size).
func DefaultDDIOConfig(enabled bool) DDIOConfig {
	return DDIOConfig{Enabled: enabled, Sets: 2048, Ways: 2, ScrambleEvictions: enabled}
}

type way struct {
	line  uint64 // line address + 1; 0 means invalid
	dirty bool
	used  uint64 // LRU stamp
}

// DDIO is the DDIO-usable LLC region.
type DDIO struct {
	cfg   DDIOConfig
	sets  [][]way
	clock uint64

	Hits, Misses, Evictions uint64
}

// NewDDIO builds the region; a disabled config returns a region whose
// Write/Read always miss with no allocation.
func NewDDIO(cfg DDIOConfig) *DDIO {
	d := &DDIO{cfg: cfg}
	if cfg.Enabled {
		d.sets = make([][]way, cfg.Sets)
		for i := range d.sets {
			d.sets[i] = make([]way, cfg.Ways)
		}
	}
	return d
}

// Enabled reports whether DDIO is active.
func (d *DDIO) Enabled() bool { return d.cfg.Enabled }

// setIndex hashes a line address to a set, folding high bits in (a stand-in
// for the LLC slice/complex-addressing hash).
func (d *DDIO) setIndex(line uint64) int {
	h := line ^ (line >> 11) ^ (line >> 22)
	return int(h & uint64(d.cfg.Sets-1))
}

// Swizzle applies the eviction-order scramble hypothesis to a writeback
// address: a bounded bit permutation that preserves the address's channel
// bits (bit 0 of the line index) but relocates it within its neighbourhood,
// destroying DRAM row locality the way hashed set indexing interleaves
// evictions from adjacent sets.
func (d *DDIO) Swizzle(a mem.Addr) mem.Addr {
	if !d.cfg.ScrambleEvictions {
		return a
	}
	// Swap three upper column bits with three row bits (channel bit and low
	// column bits preserved): an involutive bijection that breaks eviction
	// streams into 8-line runs scattered across rows — locality degrades,
	// but the write stream does not become a pure row-miss stream.
	line := uint64(a) / mem.LineSize
	const lowShift, highShift = 4, 14
	const mask = uint64(0x7)
	low := (line >> lowShift) & mask
	high := (line >> highShift) & mask
	line &^= mask << lowShift
	line &^= mask << highShift
	line |= high << lowShift
	line |= low << highShift
	return mem.Addr(line * mem.LineSize)
}

// Write processes a P2M DMA write of one line. It returns whether the line
// hit, and if a dirty line was evicted, its (possibly swizzled) address.
func (d *DDIO) Write(a mem.Addr) (hit bool, wb mem.Addr, hasWB bool) {
	if !d.cfg.Enabled {
		return false, 0, false
	}
	line := uint64(a)/mem.LineSize + 1
	set := d.sets[d.setIndex(line-1)]
	d.clock++
	for i := range set {
		if set[i].line == line {
			set[i].dirty = true
			set[i].used = d.clock
			d.Hits++
			return true, 0, false
		}
	}
	d.Misses++
	victim := 0
	for i := range set {
		if set[i].line == 0 {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].line != 0 && set[victim].dirty {
		d.Evictions++
		wb = d.Swizzle(mem.Addr((set[victim].line - 1) * mem.LineSize))
		hasWB = true
	}
	set[victim] = way{line: line, dirty: true, used: d.clock}
	return false, wb, hasWB
}

// Read processes a P2M DMA read of one line; it reports a hit if the line is
// resident. Reads do not allocate (DDIO allocates only on writes; reads use
// the cache "in place" per the DDIO primer).
func (d *DDIO) Read(a mem.Addr) bool {
	if !d.cfg.Enabled {
		return false
	}
	line := uint64(a)/mem.LineSize + 1
	set := d.sets[d.setIndex(line-1)]
	for i := range set {
		if set[i].line == line {
			d.clock++
			set[i].used = d.clock
			d.Hits++
			return true
		}
	}
	d.Misses++
	return false
}

// ResetStats clears hit/miss/eviction counters.
func (d *DDIO) ResetStats() { d.Hits, d.Misses, d.Evictions = 0, 0, 0 }
