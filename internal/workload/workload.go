// Package workload provides the C2M access-stream generators used across
// the paper's experiments: the modified-STREAM sequential read and
// read-write workloads of §2.2, random-access variants, and a closed-loop
// query generator used to model Redis-style applications.
package workload

import (
	"math/rand/v2"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// SeqRead generates the paper's C2M-Read workload: an infinite sequential
// read stream over a private buffer (64-byte AVX512 loads producing 100%
// memory reads). It never blocks, so a core running it keeps its LFB full.
type SeqRead struct {
	Base  mem.Addr
	Bytes int64
	pos   int64
}

// NewSeqRead returns a sequential reader over [base, base+bytes).
func NewSeqRead(base mem.Addr, bytes int64) *SeqRead {
	return &SeqRead{Base: base, Bytes: bytes}
}

// Poll implements cpu.Generator.
func (g *SeqRead) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	a := g.Base + mem.Addr(g.pos%g.Bytes)
	g.pos += mem.LineSize
	return cpu.Access{Addr: a, Kind: mem.Read}, now, true
}

// OnComplete implements cpu.Generator.
func (g *SeqRead) OnComplete(cpu.Access, sim.Time) {}

// SeqReadWrite generates the paper's C2M-ReadWrite workload: sequential
// 64-byte stores. Every store first reads its line into the cache (an RFO
// read through the LFB) and later evicts a dirty line (a writeback through
// the LFB that completes at CHA admission), producing 50% read / 50% write
// memory traffic.
type SeqReadWrite struct {
	Base  mem.Addr
	Bytes int64
	// EvictLagLines is how far behind the store stream the evicted line
	// trails (a stand-in for cache capacity); it keeps writebacks sequential
	// but in a different row neighbourhood than the in-flight reads.
	EvictLagLines int64

	pos int64
	// writebacks is a FIFO popped in place: it holds a few lines, and
	// reslicing its front away would make every append past the end of its
	// backing array reallocate.
	writebacks []mem.Addr
}

// NewSeqReadWrite returns a sequential store generator.
func NewSeqReadWrite(base mem.Addr, bytes int64) *SeqReadWrite {
	return &SeqReadWrite{Base: base, Bytes: bytes, EvictLagLines: 512}
}

// Poll implements cpu.Generator: pending writebacks take priority so the
// read/write mix stays at 50/50 in steady state.
func (g *SeqReadWrite) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	if len(g.writebacks) > 0 {
		a := g.writebacks[0]
		g.writebacks = append(g.writebacks[:0], g.writebacks[1:]...)
		return cpu.Access{Addr: a, Kind: mem.Write}, now, true
	}
	a := g.Base + mem.Addr(g.pos%g.Bytes)
	g.pos += mem.LineSize
	return cpu.Access{Addr: a, Kind: mem.Read}, now, true
}

// OnComplete implements cpu.Generator: a completed RFO read queues the
// eviction writeback of the line EvictLagLines behind it.
func (g *SeqReadWrite) OnComplete(acc cpu.Access, now sim.Time) {
	if acc.Kind != mem.Read {
		return
	}
	lag := g.EvictLagLines * mem.LineSize
	off := int64(acc.Addr-g.Base) - lag
	if off < 0 {
		off += g.Bytes
	}
	g.writebacks = append(g.writebacks, g.Base+mem.Addr(off))
}

// RandRead generates uniform-random reads over a buffer — the access pattern
// of GAPBS PageRank over a random graph (memory-bound, ~100% miss, no row
// locality). It never blocks.
type RandRead struct {
	Base  mem.Addr
	Lines int64
	rng   *rand.Rand
}

// NewRandRead returns a random reader over a buffer of the given size.
func NewRandRead(base mem.Addr, bytes int64, seed uint64) *RandRead {
	return &RandRead{Base: base, Lines: bytes / mem.LineSize, rng: sim.RNG(seed)}
}

// Poll implements cpu.Generator.
func (g *RandRead) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	line := g.rng.Int64N(g.Lines)
	return cpu.Access{Addr: g.Base + mem.Addr(line*mem.LineSize), Kind: mem.Read}, now, true
}

// OnComplete implements cpu.Generator.
func (g *RandRead) OnComplete(cpu.Access, sim.Time) {}

// Mix generates random accesses with a configurable write fraction and an
// optional compute gap between accesses — used for GAPBS-BC-style workloads
// (~20% writes, more compute per access than PageRank).
type Mix struct {
	Base      mem.Addr
	Lines     int64
	WriteFrac float64
	// ComputeGap inserts a delay between successive accesses, lowering the
	// core's memory-level parallelism demand.
	ComputeGap sim.Time

	rng     *rand.Rand
	readyAt sim.Time
}

// NewMix returns a mixed random generator.
func NewMix(base mem.Addr, bytes int64, writeFrac float64, gap sim.Time, seed uint64) *Mix {
	return &Mix{
		Base:       base,
		Lines:      bytes / mem.LineSize,
		WriteFrac:  writeFrac,
		ComputeGap: gap,
		rng:        sim.RNG(seed),
	}
}

// Poll implements cpu.Generator.
func (g *Mix) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	if g.readyAt > now {
		return cpu.Access{}, g.readyAt, true
	}
	g.readyAt = now + g.ComputeGap
	line := g.rng.Int64N(g.Lines)
	k := mem.Read
	if g.rng.Float64() < g.WriteFrac {
		k = mem.Write
	}
	return cpu.Access{Addr: g.Base + mem.Addr(line*mem.LineSize), Kind: k}, now, true
}

// OnComplete implements cpu.Generator.
func (g *Mix) OnComplete(cpu.Access, sim.Time) {}

// SeqMix generates a sequential stream with an arbitrary store fraction —
// the knob behind read/write-ratio sweeps (the paper varies ratios via
// different applications; the library exposes it directly). Stores expand to
// RFO reads plus lagged writebacks exactly like SeqReadWrite.
type SeqMix struct {
	Base      mem.Addr
	Bytes     int64
	WriteFrac float64
	// EvictLagLines mirrors SeqReadWrite.
	EvictLagLines int64

	pos           int64
	writebacks    []mem.Addr
	pendingStores map[mem.Addr]struct{}
	rng           *rand.Rand
}

// NewSeqMix returns a sequential generator where each line is stored (RFO +
// writeback) with probability writeFrac and loaded otherwise.
func NewSeqMix(base mem.Addr, bytes int64, writeFrac float64, seed uint64) *SeqMix {
	return &SeqMix{
		Base: base, Bytes: bytes, WriteFrac: writeFrac,
		EvictLagLines: 512, rng: sim.RNG(seed),
		pendingStores: make(map[mem.Addr]struct{}),
	}
}

// Poll implements cpu.Generator.
func (g *SeqMix) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	if len(g.writebacks) > 0 {
		a := g.writebacks[0]
		g.writebacks = append(g.writebacks[:0], g.writebacks[1:]...)
		return cpu.Access{Addr: a, Kind: mem.Write}, now, true
	}
	a := g.Base + mem.Addr(g.pos%g.Bytes)
	g.pos += mem.LineSize
	// Loads and RFOs are both reads at the host-network level; whether this
	// line later emits a writeback is decided now and remembered for
	// OnComplete.
	if g.rng.Float64() < g.WriteFrac {
		g.pendingStores[a] = struct{}{}
	}
	return cpu.Access{Addr: a, Kind: mem.Read}, now, true
}

// OnComplete implements cpu.Generator.
func (g *SeqMix) OnComplete(acc cpu.Access, now sim.Time) {
	if acc.Kind != mem.Read {
		return
	}
	if _, ok := g.pendingStores[acc.Addr]; ok {
		delete(g.pendingStores, acc.Addr)
		lag := g.EvictLagLines * mem.LineSize
		off := int64(acc.Addr-g.Base) - lag
		if off < 0 {
			off += g.Bytes
		}
		g.writebacks = append(g.writebacks, g.Base+mem.Addr(off))
	}
}
