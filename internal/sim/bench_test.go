package sim

import "testing"

// The micro-benchmarks below pin the engine's steady-state cost and, with
// -benchmem, its per-event allocation count. CI runs them at
// -benchtime=10000x and fails if the scheduling benchmarks report a nonzero
// allocs/op or B/op; BENCH_engine.json at the repo root records the
// before/after trajectory of the container/heap -> flat 4-ary heap rewrite.

// BenchmarkScheduleRun measures one schedule+dispatch round trip: the cost
// every simulated event pays. The callback is hoisted so the benchmark sees
// only the engine's own work (push, pop, dispatch), not closure creation.
func BenchmarkScheduleRun(b *testing.B) {
	e := New()
	n := 0
	fn := func(any) { n++ }
	e.AtFunc(0, fn, nil) // pre-grow the heap so -benchtime=1x is already steady state
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

// BenchmarkScheduleRunLane is BenchmarkScheduleRun through a lane: one
// in-order schedule and its dispatch, the round trip of every event on a
// fixed-latency hop.
func BenchmarkScheduleRunLane(b *testing.B) {
	e := New()
	l := e.NewLane()
	n := 0
	fn := func(any) { n++ }
	l.At(1, fn, nil) // pre-grow the ring and the heap so -benchtime=1x is already steady state
	e.Step()
	n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(1, fn, nil)
		e.Step()
	}
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkScheduleRunLaneWindow keeps 256 events pending over eight lanes,
// each event rescheduling itself a fixed delay ahead on its own lane: the
// regime of the host's pipeline hops, where a dispatch replaces the heap
// root's key and sifts it down once.
func BenchmarkScheduleRunLaneWindow(b *testing.B) {
	e := New()
	const window = 256
	var fn EventFunc
	fn = func(arg any) { arg.(*Lane).After(window, fn, arg) }
	var lanes [8]*Lane
	for k := range lanes {
		lanes[k] = e.NewLane()
	}
	for i := 0; i < window; i++ {
		l := lanes[i%len(lanes)]
		l.At(Time(i+1), fn, l)
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
	e.Step() // grow the slot free list so -benchtime=1x is already steady state
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
	w.WakeAt(0) // pre-grow the heap so -benchtime=1x is already steady state
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
// popped event each step, so b.N operations all run at the given heap depth
// with the given arrival pattern.
func benchHeapPattern(b *testing.B, depth int, next func(i int) Time) {
	e := New()
	fn := func(any) {}
	for i := 0; i < depth; i++ {
		e.AtFunc(next(i), fn, nil)
	}
	// Grow the same-instant ring and the slot free list so -benchtime=1x is
	// already steady state.
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

// BenchmarkHeapPushPopAscending: FIFO-ish arrivals (timer wheels, paced
// links) — every push lands at the heap's far end.
func BenchmarkHeapPushPopAscending(b *testing.B) {
	benchHeapPattern(b, 512, func(i int) Time { return Time(i) })
}

// BenchmarkHeapPushPopSameInstant: bursts at one timestamp (a drained
// backlog re-waking its clients) — ordering falls to the seq tiebreak.
func BenchmarkHeapPushPopSameInstant(b *testing.B) {
	benchHeapPattern(b, 512, func(i int) Time { return 0 })
}

// BenchmarkHeapPushPopRandom: uncorrelated arrival times (colliding
// components with unrelated latencies) — the sift-heavy worst case.
func BenchmarkHeapPushPopRandom(b *testing.B) {
	rng := RNG(0xbeac4)
	times := make([]Time, 1<<16)
	for i := range times {
		times[i] = Time(rng.Uint64N(1 << 20))
	}
	benchHeapPattern(b, 512, func(i int) Time { return times[i&(1<<16-1)] })
}
