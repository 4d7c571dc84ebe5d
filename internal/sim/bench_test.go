package sim

import (
	"container/heap"
	"testing"
)

// The micro-benchmarks below pin the engine's steady-state cost and, with
// -benchmem, its per-event allocation count. CI runs them at
// -benchtime=10000x and fails if the scheduling benchmarks report a nonzero
// allocs/op or B/op; BENCH_engine.json at the repo root records each
// engine rewrite's before and after.

// BenchmarkScheduleRun measures one schedule+dispatch round trip: the cost
// every simulated event pays. The callback is hoisted so the benchmark sees
// only the engine's own work (push, pop, dispatch), not closure creation.
func BenchmarkScheduleRun(b *testing.B) {
	e := New()
	n := 0
	fn := func(any) { n++ }
	e.AtFunc(0, fn, nil) // pre-grow the node slab so -benchtime=1x is already steady state
	e.Step()
	n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtFunc(Time(i), fn, nil)
		e.Step()
	}
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkScheduleRunHops keeps 256 events pending, each rescheduling
// itself a fixed delay ahead, with eight delays from 2 to 250 ns: the
// regime of the host's fixed-latency pipeline hops (core to CHA, CHA to
// MC, a DRAM burst, a PCIe TLP), whose events land a few buckets ahead.
func BenchmarkScheduleRunHops(b *testing.B) {
	e := New()
	hops := [8]Time{2, 5, 7, 18, 20, 33, 70, 250}
	var fn EventFunc
	fn = func(arg any) { e.AfterFunc(*arg.(*Time)*Nanosecond, fn, arg) }
	for i := 0; i < 256; i++ {
		e.AtFunc(Time(i)*Nanosecond, fn, &hops[i%len(hops)])
	}
	e.Step() // -benchtime=1x is already steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineThroughput measures the raw event loop under a pending
// window of 256 events — the cache-resident push/pop regime every component
// of the simulator drives. ns/op here is the engine's per-event floor.
func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	n := 0
	fn := func(any) { n++ }
	const window = 256
	for i := 0; i < window; i++ {
		e.AtFunc(Time(i), fn, nil)
	}
	e.Step() // grow the node free list so -benchtime=1x is already steady state
	e.AtFunc(e.Now()+window, fn, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.AtFunc(e.Now()+window, fn, nil)
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkWakerChurn measures the supersede/absorb path of a hot Waker:
// one arm, one absorbed duplicate, one dispatch — the pattern the DRAM
// channel scheduler and CHA admission stage generate per request.
func BenchmarkWakerChurn(b *testing.B) {
	e := New()
	n := 0
	w := NewWaker(e, func() { n++ })
	w.WakeAt(0) // pre-grow the node slab so -benchtime=1x is already steady state
	e.Step()
	n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WakeAt(Time(i))
		w.WakeAt(Time(i + 1)) // absorbed: a wake is already pending earlier
		e.Step()
	}
	if n != b.N {
		b.Fatalf("ran %d wakes, want %d", n, b.N)
	}
}

// benchHeapPattern keeps a fixed number of events pending and replaces the
// popped event each step, so b.N operations all run at the given depth with
// the given arrival pattern.
func benchHeapPattern(b *testing.B, depth int, next func(i int) Time) {
	e := New()
	fn := func(any) {}
	for i := 0; i < depth; i++ {
		e.AtFunc(next(i), fn, nil)
	}
	// Grow the node slab so -benchtime=1x is already steady state.
	e.AtFunc(e.Now(), fn, nil)
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		t := next(depth + i)
		if t < e.Now() {
			t = e.Now()
		}
		e.AtFunc(t, fn, nil)
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkHeapPushPopAscending: FIFO-ish arrivals (paced links) — every
// push lands behind its bucket's tail.
func BenchmarkHeapPushPopAscending(b *testing.B) {
	benchHeapPattern(b, 512, func(i int) Time { return Time(i) })
}

// BenchmarkHeapPushPopSameInstant: bursts at one timestamp (a drained
// backlog re-waking its clients) — ordering falls to the seq tiebreak, and
// all 512 events share one bucket.
func BenchmarkHeapPushPopSameInstant(b *testing.B) {
	benchHeapPattern(b, 512, func(i int) Time { return 0 })
}

// BenchmarkHeapPushPopRandom: uncorrelated arrival times over about 1 µs
// (colliding components with unrelated latencies) — most inserts walk
// their bucket's list.
func BenchmarkHeapPushPopRandom(b *testing.B) {
	rng := RNG(0xbeac4)
	times := make([]Time, 1<<16)
	for i := range times {
		times[i] = Time(rng.Uint64N(1 << 20))
	}
	benchHeapPattern(b, 512, func(i int) Time { return times[i&(1<<16-1)] })
}

// calHeap is a container/heap of ints for BenchmarkCalibrationHeap.
type calHeap []int

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// BenchmarkCalibrationHeap pops and pushes container/heap over a fixed set
// of 256 keys. It runs no code of this repository, so CI's fig3 perf gate
// divides wall time by it to get a cost that holds across machines without
// also dividing out a regression of the engine the gate is meant to catch.
// Keys below 256 box without allocating.
func BenchmarkCalibrationHeap(b *testing.B) {
	h := make(calHeap, 0, 256)
	for i := 0; i < 256; i++ {
		heap.Push(&h, i*167%256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heap.Pop(&h)
		heap.Push(&h, i*167%256)
	}
}
