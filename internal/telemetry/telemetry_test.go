package telemetry

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestIntegratorAvg(t *testing.T) {
	eng := sim.New()
	g := NewIntegrator(eng)
	eng.AtFunc(0, func(any) { g.Set(2) }, nil)
	eng.AtFunc(10, func(any) { g.Set(4) }, nil)
	eng.AtFunc(30, func(any) { g.Set(0) }, nil)
	eng.AtFunc(40, func(any) {}, nil)
	eng.Run()
	// levels: 2 for [0,10), 4 for [10,30), 0 for [30,40) => (20+80+0)/40 = 2.5
	if got := g.Avg(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Avg = %v, want 2.5", got)
	}
	if g.Max() != 4 {
		t.Fatalf("Max = %d, want 4", g.Max())
	}
}

func TestIntegratorResetPreservesLevel(t *testing.T) {
	eng := sim.New()
	g := NewIntegrator(eng)
	eng.AtFunc(0, func(any) { g.Set(3) }, nil)
	eng.AtFunc(10, func(any) { g.Reset() }, nil)
	eng.AtFunc(20, func(any) {}, nil)
	eng.Run()
	if got := g.Avg(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Avg after reset = %v, want 3", got)
	}
	if g.Level() != 3 {
		t.Fatalf("Level = %d, want 3", g.Level())
	}
}

func TestIntegratorNegativePanics(t *testing.T) {
	eng := sim.New()
	g := NewIntegrator(eng)
	defer func() {
		if recover() == nil {
			t.Fatalf("negative level did not panic")
		}
	}()
	g.Add(-1)
}

func TestCounterRate(t *testing.T) {
	eng := sim.New()
	c := NewCounter(eng)
	eng.AtFunc(sim.Microsecond, func(any) { c.IncN(1000) }, nil)
	eng.Run()
	// 1000 events in 1us = 1e9 events/s
	if got := c.RatePerSecond(); math.Abs(got-1e9) > 1 {
		t.Fatalf("rate = %v, want 1e9", got)
	}
	if got := c.BytesPerSecond(); math.Abs(got-64e9) > 64 {
		t.Fatalf("bytes/s = %v, want 64e9", got)
	}
}

func TestCounterReset(t *testing.T) {
	eng := sim.New()
	c := NewCounter(eng)
	eng.AtFunc(10, func(any) { c.Inc(); c.Reset() }, nil)
	eng.AtFunc(20, func(any) { c.Inc() }, nil)
	eng.Run()
	if c.Count() != 1 {
		t.Fatalf("Count = %d, want 1", c.Count())
	}
}

// Little's law identity: if N requests each spend exactly d in the stage and
// arrivals are spread over the window, measured latency = d.
func TestLatencyLittlesLaw(t *testing.T) {
	eng := sim.New()
	l := NewLatency(eng)
	const d = 70 * sim.Nanosecond
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 10 * sim.Nanosecond
		eng.AtFunc(at, func(any) { l.Enter() }, nil)
		eng.AtFunc(at+d, func(any) { l.Exit() }, nil)
	}
	eng.Run()
	if got := l.AvgNanos(); math.Abs(got-70) > 0.5 {
		t.Fatalf("AvgNanos = %v, want ~70", got)
	}
}

// Property: for random per-request residencies, Little's-law latency equals
// the true mean residency (the window covers all activity exactly).
func TestLatencyMatchesMeanResidencyProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		eng := sim.New()
		l := NewLatency(eng)
		var sum float64
		for i, r := range raw {
			d := sim.Time(int(r)+1) * sim.Nanosecond
			at := sim.Time(i) * 5 * sim.Nanosecond
			sum += d.Nanoseconds()
			eng.AtFunc(at, func(any) { l.Enter() }, nil)
			eng.AtFunc(at+d, func(any) { l.Exit() }, nil)
		}
		eng.Run()
		want := sum / float64(len(raw))
		got := l.AvgNanos()
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFracTimer(t *testing.T) {
	eng := sim.New()
	f := NewFracTimer(eng)
	eng.AtFunc(0, func(any) { f.Set(true) }, nil)
	eng.AtFunc(25, func(any) { f.Set(false) }, nil)
	eng.AtFunc(50, func(any) { f.Set(true) }, nil)
	eng.AtFunc(75, func(any) { f.Set(false) }, nil)
	eng.AtFunc(100, func(any) {}, nil)
	eng.Run()
	if got := f.Frac(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Frac = %v, want 0.5", got)
	}
}

func TestFracTimerOpenInterval(t *testing.T) {
	eng := sim.New()
	f := NewFracTimer(eng)
	eng.AtFunc(50, func(any) { f.Set(true) }, nil)
	eng.AtFunc(100, func(any) {}, nil)
	eng.Run()
	if got := f.Frac(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Frac with condition still on = %v, want 0.5", got)
	}
	if !f.On() {
		t.Fatalf("On = false, want true")
	}
}

func TestFracTimerIdempotentSet(t *testing.T) {
	eng := sim.New()
	f := NewFracTimer(eng)
	eng.AtFunc(0, func(any) { f.Set(true); f.Set(true) }, nil)
	eng.AtFunc(10, func(any) { f.Set(false); f.Set(false) }, nil)
	eng.AtFunc(20, func(any) {}, nil)
	eng.Run()
	if got := f.Frac(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Frac = %v, want 0.5", got)
	}
}

func TestFracTimerResetWhileOn(t *testing.T) {
	eng := sim.New()
	f := NewFracTimer(eng)
	eng.AtFunc(0, func(any) { f.Set(true) }, nil)
	eng.AtFunc(10, func(any) { f.Reset() }, nil)
	eng.AtFunc(20, func(any) {}, nil)
	eng.Run()
	if got := f.Frac(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Frac after reset while on = %v, want 1.0", got)
	}
}

func TestSamplesQuantiles(t *testing.T) {
	var s Samples
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	med := s.Quantile(0.5)
	if med < 49 || med > 52 {
		t.Fatalf("median = %v", med)
	}
	if got := s.FracAtLeast(51); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FracAtLeast(51) = %v, want 0.5", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %v, want 50.5", got)
	}
}

func TestSamplesEmpty(t *testing.T) {
	var s Samples
	if s.Quantile(0.5) != 0 || s.FracAtLeast(1) != 0 || s.Mean() != 0 || s.Len() != 0 {
		t.Fatalf("empty Samples should report zeros")
	}
}

func TestSamplesReset(t *testing.T) {
	var s Samples
	s.Add(5)
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after reset = %d", s.Len())
	}
}

// TestSamplesQuantileMemoInvalidation pins the memoized-sort contract: the
// quantile view must reflect samples added or discarded after a prior
// Quantile call sorted the window.
func TestSamplesQuantileMemoInvalidation(t *testing.T) {
	var s Samples
	s.Add(10)
	s.Add(20)
	if got := s.Quantile(1); got != 20 {
		t.Fatalf("Quantile(1) = %v, want 20", got)
	}
	s.Add(5) // must invalidate the memoized sorted view
	if got := s.Quantile(0); got != 5 {
		t.Fatalf("Quantile(0) after Add = %v, want 5", got)
	}
	if got := s.Quantile(1); got != 20 {
		t.Fatalf("Quantile(1) after Add = %v, want 20", got)
	}
	s.Reset()
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile after Reset = %v, want 0", got)
	}
	s.Add(7)
	if got := s.Quantile(0.5); got != 7 {
		t.Fatalf("Quantile after Reset+Add = %v, want 7", got)
	}
}

// TestSamplesQuantileRepeatedReadsAllocFree verifies the memoization goal:
// after the first sort, further quantile reads of an unchanged window do
// not copy or sort.
func TestSamplesQuantileRepeatedReadsAllocFree(t *testing.T) {
	var s Samples
	r := sim.RNG(11)
	for i := 0; i < 1000; i++ {
		s.Add(r.Float64())
	}
	s.Quantile(0.5) // first read sorts and memoizes
	allocs := testing.AllocsPerRun(100, func() {
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			s.Quantile(q)
		}
	})
	if allocs != 0 {
		t.Fatalf("repeated Quantile reads allocated %v per run, want 0", allocs)
	}
}

func TestLatencyAvgNanosDegenerateWindowIsNaN(t *testing.T) {
	// A request enters before the window, the window is Reset while it is in
	// flight, and no new request arrives: occupancy is nonzero but the
	// arrival rate is zero. O/R is undefined — AvgNanos must say so with NaN
	// instead of silently reporting 0 ns.
	eng := sim.New()
	l := NewLatency(eng)
	eng.AtFunc(0, func(any) { l.Enter() }, nil)
	eng.AtFunc(10*sim.Nanosecond, func(any) { l.Reset() }, nil)
	eng.AtFunc(20*sim.Nanosecond, func(any) {}, nil)
	eng.Run()
	if got := l.AvgNanos(); !math.IsNaN(got) {
		t.Fatalf("AvgNanos = %v for occupied zero-arrival window, want NaN", got)
	}
	// An idle window (no occupancy, no arrivals) stays a plain 0.
	eng2 := sim.New()
	l2 := NewLatency(eng2)
	eng2.AtFunc(20*sim.Nanosecond, func(any) {}, nil)
	eng2.Run()
	if got := l2.AvgNanos(); got != 0 {
		t.Fatalf("AvgNanos = %v for idle window, want 0", got)
	}
}

func TestLatencyDirectSamplingMatchesResidency(t *testing.T) {
	eng := sim.New()
	l := NewLatency(eng)
	l.EnableDirectSampling()
	l.EnableDirectSampling() // idempotent
	if l.DirectCount() != 0 || l.AvgNanosDirect() != 0 {
		t.Fatalf("direct sampler not empty before traffic")
	}
	const d = 42 * sim.Nanosecond
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 100 * sim.Nanosecond
		eng.AtFunc(at, func(any) { l.Enter() }, nil)
		eng.AtFunc(at+d, func(any) { l.Exit() }, nil)
	}
	eng.Run()
	if l.DirectCount() != 20 {
		t.Fatalf("DirectCount = %d, want 20", l.DirectCount())
	}
	if got := l.AvgNanosDirect(); math.Abs(got-42) > 1e-9 {
		t.Fatalf("AvgNanosDirect = %v, want 42", got)
	}
}

func TestLatencyDirectSamplingOutOfOrderUnbiased(t *testing.T) {
	// FIFO matching pairs exits with enters in arrival order. When requests
	// complete out of order the individual samples are misattributed, but the
	// sum of latencies — hence the average — is permutation-invariant.
	eng := sim.New()
	l := NewLatency(eng)
	l.EnableDirectSampling()
	// Two overlapping requests completing in reverse order:
	// A enters 0 exits 100, B enters 10 exits 50. True mean (100+40)/2 = 70.
	eng.AtFunc(0, func(any) { l.Enter() }, nil)
	eng.AtFunc(10*sim.Nanosecond, func(any) { l.Enter() }, nil)
	eng.AtFunc(50*sim.Nanosecond, func(any) { l.Exit() }, nil)  // B finishes first
	eng.AtFunc(100*sim.Nanosecond, func(any) { l.Exit() }, nil) // then A
	eng.Run()
	if got := l.AvgNanosDirect(); math.Abs(got-70) > 1e-9 {
		t.Fatalf("AvgNanosDirect = %v, want 70 (order-invariant mean)", got)
	}
}

func TestLatencyDirectSamplingResetPreservesPending(t *testing.T) {
	// A request in flight across a window boundary must still produce a
	// full-latency sample in the new window.
	eng := sim.New()
	l := NewLatency(eng)
	l.EnableDirectSampling()
	eng.AtFunc(0, func(any) { l.Enter() }, nil)
	eng.AtFunc(30*sim.Nanosecond, func(any) { l.Reset() }, nil)
	eng.AtFunc(80*sim.Nanosecond, func(any) { l.Exit() }, nil)
	eng.Run()
	if l.DirectCount() != 1 {
		t.Fatalf("DirectCount = %d, want 1", l.DirectCount())
	}
	if got := l.AvgNanosDirect(); math.Abs(got-80) > 1e-9 {
		t.Fatalf("AvgNanosDirect = %v, want 80 (full residency across Reset)", got)
	}
}

// TestSamplesQuantileNearestRank pins the nearest-rank definition on the
// edge cases the old floor-truncating index got wrong: a single sample, two
// samples at the upper quantiles, and q just below 1 over a small window.
func TestSamplesQuantileNearestRank(t *testing.T) {
	one := &Samples{}
	one.Add(7)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 7 {
			t.Fatalf("n=1 Quantile(%v) = %v, want 7", q, got)
		}
	}

	two := &Samples{}
	two.Add(10)
	two.Add(20)
	// p50 of two samples is the first rank (ceil(0.5*2) = 1).
	if got := two.Quantile(0.5); got != 10 {
		t.Fatalf("n=2 Quantile(0.5) = %v, want 10", got)
	}
	// Anything above 0.5 needs the second rank; the floored index returned
	// the lower sample for every q < 1.
	for _, q := range []float64{0.51, 0.75, 0.99, 0.999} {
		if got := two.Quantile(q); got != 20 {
			t.Fatalf("n=2 Quantile(%v) = %v, want 20", q, got)
		}
	}

	// q just below 1: p99 over 50 samples must be the maximum (rank
	// ceil(0.99*50) = 50), not the 49th rank.
	fifty := &Samples{}
	for i := 1; i <= 50; i++ {
		fifty.Add(float64(i))
	}
	if got := fifty.Quantile(0.99); got != 50 {
		t.Fatalf("n=50 Quantile(0.99) = %v, want 50", got)
	}
	if got := fifty.Quantile(0.98); got != 49 {
		t.Fatalf("n=50 Quantile(0.98) = %v, want 49", got)
	}
	// The median index is unchanged by the redefinition for every n (ceil
	// of n/2 equals the old floored midpoint): pin one even- and one odd-
	// sized window so golden outputs keyed to medians stay stable.
	if got := fifty.Quantile(0.5); got != 25 {
		t.Fatalf("n=50 Quantile(0.5) = %v, want 25", got)
	}
	odd := &Samples{}
	for i := 1; i <= 5; i++ {
		odd.Add(float64(i))
	}
	if got := odd.Quantile(0.5); got != 3 {
		t.Fatalf("n=5 Quantile(0.5) = %v, want 3", got)
	}
}
