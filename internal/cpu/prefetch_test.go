package cpu

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func seqAccesses(n int) *fixedGen {
	g := &fixedGen{}
	for i := 0; i < n; i++ {
		g.accs = append(g.accs, Access{Addr: mem.Addr(i * mem.LineSize), Kind: mem.Read})
	}
	return g
}

func TestPrefetcherDetectsStream(t *testing.T) {
	p := DefaultPrefetcher()
	var issued []mem.Addr
	for i := 0; i < 10; i++ {
		issued = append(issued, p.observe(mem.Addr(i*mem.LineSize))...)
	}
	if len(issued) == 0 {
		t.Fatalf("sequential stream never triggered prefetches")
	}
	// Prefetches run ahead of the demand stream.
	for _, a := range issued {
		if a <= 3*mem.LineSize {
			t.Fatalf("prefetch %#x not ahead of the trigger point", a)
		}
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	p := DefaultPrefetcher()
	addrs := []mem.Addr{0x1000, 0x9040, 0x2480, 0x77c0, 0x31c0, 0x5a00, 0x1280, 0x8fc0}
	for _, a := range addrs {
		if got := p.observe(a); len(got) != 0 {
			t.Fatalf("random stream triggered prefetch of %v", got)
		}
	}
}

func TestPrefetcherSlotLimit(t *testing.T) {
	p := DefaultPrefetcher()
	p.Slots = 2
	inflight := 0
	for i := 0; i < 20; i++ {
		inflight += len(p.observe(mem.Addr(i * mem.LineSize)))
	}
	if inflight > 2 {
		t.Fatalf("issued %d prefetches with 2 slots and no completions", inflight)
	}
}

func TestPrefetcherLifecycle(t *testing.T) {
	p := DefaultPrefetcher()
	var pf []mem.Addr
	for i := 0; i < 6; i++ {
		pf = append(pf, p.observe(mem.Addr(i*mem.LineSize))...)
	}
	if len(pf) == 0 {
		t.Fatalf("no prefetches")
	}
	a := pf[0]
	if got := p.lookup(a); got != pfInflight {
		t.Fatalf("lookup(inflight) = %v", got)
	}
	p.complete(a)
	if got := p.lookup(a); got != pfReady {
		t.Fatalf("lookup(ready) = %v", got)
	}
	// Ready entries are consumed by lookup.
	if got := p.lookup(a); got != pfMiss {
		t.Fatalf("ready entry not consumed")
	}
}

func TestDisabledPrefetcherIsMiss(t *testing.T) {
	var p *Prefetcher
	if p.enabled() {
		t.Fatalf("nil prefetcher enabled")
	}
	if got := p.lookup(0); got != pfMiss {
		t.Fatalf("nil prefetcher lookup = %v", got)
	}
}

// §2.2's claim: prefetching improves sequential throughput. The prefetcher
// raises effective memory-level parallelism beyond the LFB bound.
func TestPrefetchImprovesSequentialThroughput(t *testing.T) {
	run := func(pf *Prefetcher) (lines uint64, dur sim.Time) {
		eng, ch := testRig()
		cfg := DefaultConfig()
		cfg.Prefetch = pf
		gen := seqAccesses(4000)
		c := New(eng, cfg, 0, ch, gen)
		c.Start(0)
		eng.Run()
		return c.Stats().LinesRead.Count(), eng.Now()
	}
	offLines, offDur := run(nil)
	onLines, onDur := run(DefaultPrefetcher())
	if offLines != 4000 || onLines != 4000 {
		t.Fatalf("incomplete runs: off=%d on=%d", offLines, onLines)
	}
	speedup := float64(offDur) / float64(onDur)
	if speedup < 1.15 {
		t.Fatalf("prefetch speedup %.2fx, want >= 1.15x on a sequential stream", speedup)
	}
}

// §2.1's claim: prefetching has little effect on random-access workloads.
func TestPrefetchNeutralForRandomAccess(t *testing.T) {
	run := func(pf *Prefetcher) sim.Time {
		eng, ch := testRig()
		cfg := DefaultConfig()
		cfg.Prefetch = pf
		gen := &fixedGen{}
		// A fixed pseudo-random pattern (same for both runs).
		x := uint64(12345)
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			gen.accs = append(gen.accs, Access{
				Addr: mem.Addr((x>>33)%(1<<20)) * mem.LineSize, Kind: mem.Read})
		}
		c := New(eng, cfg, 0, ch, gen)
		c.Start(0)
		eng.Run()
		return eng.Now()
	}
	off, on := run(nil), run(DefaultPrefetcher())
	diff := float64(on-off) / float64(off)
	if diff > 0.05 || diff < -0.05 {
		t.Fatalf("prefetch changed random-access runtime by %.1f%%, want < 5%%", diff*100)
	}
}

// Demand hits on in-flight prefetches must complete exactly once.
func TestPrefetchInflightPiggyback(t *testing.T) {
	eng, ch := testRig()
	cfg := DefaultConfig()
	pf := DefaultPrefetcher()
	pf.Trigger = 1 // arm aggressively so demands catch in-flight prefetches
	cfg.Prefetch = pf
	gen := seqAccesses(500)
	c := New(eng, cfg, 0, ch, gen)
	c.Start(0)
	eng.Run()
	if got := c.Stats().LinesRead.Count(); got != 500 {
		t.Fatalf("completed %d of 500 with piggybacking", got)
	}
	if c.Stats().LFBLat.Occ.Level() != 0 {
		t.Fatalf("LFB leak: %d entries still held", c.Stats().LFBLat.Occ.Level())
	}
}

// driveEvictions arms a stream, completes every issued prefetch without
// consuming any, and re-arms at a fresh region until the ready-set cap
// forces well over a hundred evictions. It returns the surviving ready set
// in a canonical (sorted) order.
func driveEvictions(p *Prefetcher) []mem.Addr {
	base := mem.Addr(0)
	for round := 0; round < 40; round++ {
		for i := 0; i < 8; i++ {
			for _, pf := range p.observe(base + mem.Addr(i*mem.LineSize)) {
				p.complete(pf)
			}
		}
		base += 1 << 20 // jump far away: the old stream's lines are never consumed
	}
	var out []mem.Addr
	for a := range p.ready {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPrefetcherEvictionDeterministic pins the fix for the ready-set
// capacity eviction: the victim used to be picked by ranging over the ready
// map, leaking Go's randomized map iteration order into simulation state.
// Two identical runs must now leave identical survivors (oldest-completed
// lines evicted first).
func TestPrefetcherEvictionDeterministic(t *testing.T) {
	a := driveEvictions(DefaultPrefetcher())
	b := driveEvictions(DefaultPrefetcher())
	// The drive must actually exercise the cap, or the test is vacuous.
	if len(a) < 4*DefaultPrefetcher().Slots {
		t.Fatalf("ready set never reached the eviction cap: %d lines", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("eviction survivors differ between identical runs:\n%v\nvs\n%v", a, b)
	}
}

// TestPrefetcherEvictionOldestFirst checks the documented policy directly:
// with the cap exceeded, the lines evicted are exactly the oldest completed
// ones, so the survivors are the most recent 4*Slots completions.
func TestPrefetcherEvictionOldestFirst(t *testing.T) {
	p := &Prefetcher{Slots: 2, Depth: 4, Trigger: 1, HitLatency: sim.Nanosecond}
	p.init()
	var completed []mem.Addr
	base := mem.Addr(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			for _, pf := range p.observe(base + mem.Addr(i*mem.LineSize)) {
				p.complete(pf)
				completed = append(completed, pf)
			}
		}
		base += 1 << 20
	}
	cap := 4 * p.Slots
	if len(completed) <= cap {
		t.Fatalf("only %d completions; need more than %d to force eviction", len(completed), cap)
	}
	want := map[mem.Addr]bool{}
	for _, a := range completed[len(completed)-cap:] {
		want[a] = true
	}
	if !reflect.DeepEqual(p.ready, want) {
		t.Fatalf("survivors are not the newest %d completions:\ngot  %v\nwant %v", cap, p.ready, want)
	}
}
