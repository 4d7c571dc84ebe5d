// Package telemetry reimplements the measurement methodology of the paper's
// §4.2 in simulator form: time-weighted queue/buffer occupancy (O), request
// arrival rates (R), and average latency derived through Little's law
// (L = O/R). On real hardware these come from Intel uncore performance
// counters sampled every second; in the simulator they are exact integrals
// over a measurement window.
//
// Every probe supports Reset, which marks the start of the measurement
// window. Experiments warm the system up, Reset all probes, run the measured
// interval, and then read averages.
package telemetry

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Integrator tracks a time-weighted integral of an integer level (queue
// occupancy, buffer fill, credits in use). Avg reports the time-average level
// over the window since the last Reset.
type Integrator struct {
	eng   *sim.Engine
	level int64
	area  int64 // sum of level * duration (picosecond-weighted)
	max   int64
	since sim.Time
	last  sim.Time
}

// NewIntegrator returns an integrator starting at level 0.
func NewIntegrator(eng *sim.Engine) *Integrator {
	return &Integrator{eng: eng, since: eng.Now(), last: eng.Now()}
}

func (g *Integrator) settle() {
	now := g.eng.Now()
	if now > g.last {
		g.area += g.level * int64(now-g.last)
		g.last = now
	}
}

// Add changes the level by delta.
func (g *Integrator) Add(delta int) {
	g.settle()
	g.level += int64(delta)
	if g.level < 0 {
		panic("telemetry: integrator level went negative")
	}
	if g.level > g.max {
		g.max = g.level
	}
}

// Set forces the level to v.
func (g *Integrator) Set(v int) { g.Add(v - int(g.level)) }

// Level reports the instantaneous level.
func (g *Integrator) Level() int { return int(g.level) }

// Max reports the maximum level observed since the last Reset.
func (g *Integrator) Max() int { return int(g.max) }

// Avg reports the time-average level over the measurement window.
func (g *Integrator) Avg() float64 {
	g.settle()
	dur := g.last - g.since
	if dur <= 0 {
		return float64(g.level)
	}
	return float64(g.area) / float64(dur)
}

// Reset starts a new measurement window at the current time, preserving the
// instantaneous level.
func (g *Integrator) Reset() {
	g.settle()
	g.area = 0
	g.max = g.level
	g.since = g.eng.Now()
	g.last = g.eng.Now()
}

// Counter counts events over the measurement window and converts them to
// rates.
type Counter struct {
	eng   *sim.Engine
	n     uint64
	since sim.Time
}

// NewCounter returns a zeroed counter.
func NewCounter(eng *sim.Engine) *Counter {
	return &Counter{eng: eng, since: eng.Now()}
}

// Inc adds one event.
func (c *Counter) Inc() { c.n++ }

// IncN adds n events.
func (c *Counter) IncN(n int) { c.n += uint64(n) }

// Count reports events since the last Reset.
func (c *Counter) Count() uint64 { return c.n }

// RatePerSecond reports events per simulated second over the window.
func (c *Counter) RatePerSecond() float64 {
	dur := c.eng.Now() - c.since
	if dur <= 0 {
		return 0
	}
	return float64(c.n) / dur.Seconds()
}

// BytesPerSecond treats each event as one 64-byte cacheline and reports the
// implied bandwidth in bytes per simulated second.
func (c *Counter) BytesPerSecond() float64 { return c.RatePerSecond() * 64 }

// Reset starts a new window.
func (c *Counter) Reset() { c.n = 0; c.since = c.eng.Now() }

// Latency pairs an occupancy integrator with an arrival counter and reports
// average latency via Little's law, exactly as the paper derives per-domain
// latency from uncore O and R measurements.
type Latency struct {
	Occ *Integrator
	Arr *Counter

	// direct, when non-nil, shadows the probe with per-request timestamp
	// sampling (see EnableDirectSampling). Nil in normal operation, so the
	// Enter/Exit hot path pays only an untaken branch.
	direct *directSampler
}

// directSampler pairs each Enter timestamp with an Exit in FIFO order. The sum
// of (exit - enter) over FIFO-matched pairs equals the sum of true
// per-request latencies whenever every entered request eventually exits
// (the matching is a permutation, and the total is permutation-invariant),
// so out-of-order completion does not bias the average.
type directSampler struct {
	enters []sim.Time
	head   int // consumed prefix of enters
	sumNs  float64
	count  uint64
}

// NewLatency returns a latency probe.
func NewLatency(eng *sim.Engine) *Latency {
	return &Latency{Occ: NewIntegrator(eng), Arr: NewCounter(eng)}
}

// EnableDirectSampling attaches the per-request timestamp shadow used by the
// audit cross-check. Idempotent; call before traffic starts.
func (l *Latency) EnableDirectSampling() {
	if l.direct == nil {
		l.direct = &directSampler{}
	}
}

// Enter records a request entering the measured stage.
func (l *Latency) Enter() {
	l.Occ.Add(1)
	l.Arr.Inc()
	if l.direct != nil {
		l.direct.enters = append(l.direct.enters, l.Occ.eng.Now())
	}
}

// Exit records a request leaving the measured stage.
func (l *Latency) Exit() {
	l.Occ.Add(-1)
	if d := l.direct; d != nil && d.head < len(d.enters) {
		enter := d.enters[d.head]
		d.head++
		d.sumNs += (l.Occ.eng.Now() - enter).Nanoseconds()
		d.count++
	}
}

// AvgNanos reports the Little's-law average latency (O/R) in nanoseconds.
// A degenerate window — nonzero occupancy with zero arrivals, e.g. a window
// that ends with only in-flight requests — has no defined O/R latency and
// reports NaN rather than silently claiming zero.
func (l *Latency) AvgNanos() float64 {
	rate := l.Arr.RatePerSecond() // requests per second
	if rate == 0 {
		if l.Occ.Avg() > 0 {
			return math.NaN()
		}
		return 0
	}
	return l.Occ.Avg() / rate * 1e9
}

// AvgNanosDirect reports the direct-sampling average latency over requests
// completed since the last Reset. It returns 0 before EnableDirectSampling
// or when nothing completed.
func (l *Latency) AvgNanosDirect() float64 {
	if l.direct == nil || l.direct.count == 0 {
		return 0
	}
	return l.direct.sumNs / float64(l.direct.count)
}

// DirectCount reports completed requests observed by the direct sampler
// since the last Reset.
func (l *Latency) DirectCount() uint64 {
	if l.direct == nil {
		return 0
	}
	return l.direct.count
}

// Reset starts a new window. Direct-sampling accumulators restart; pending
// enter timestamps are preserved so requests in flight across the window
// boundary still measure their full latency on exit.
func (l *Latency) Reset() {
	l.Occ.Reset()
	l.Arr.Reset()
	if d := l.direct; d != nil {
		d.sumNs, d.count = 0, 0
		// Compact the consumed prefix so the slice doesn't grow forever.
		if d.head > 0 {
			d.enters = append(d.enters[:0], d.enters[d.head:]...)
			d.head = 0
		}
	}
}

// FracTimer measures the fraction of window time a boolean condition holds
// (e.g. "WPQ is full", "PFC pause asserted").
type FracTimer struct {
	eng     *sim.Engine
	on      bool
	onSince sim.Time
	total   sim.Time
	since   sim.Time
}

// NewFracTimer returns a timer with the condition initially false.
func NewFracTimer(eng *sim.Engine) *FracTimer {
	return &FracTimer{eng: eng, since: eng.Now()}
}

// Set updates the condition.
func (f *FracTimer) Set(on bool) {
	if on == f.on {
		return
	}
	now := f.eng.Now()
	if f.on {
		f.total += now - f.onSince
	} else {
		f.onSince = now
	}
	f.on = on
}

// On reports the instantaneous condition.
func (f *FracTimer) On() bool { return f.on }

// Frac reports the fraction of the window the condition held, in [0, 1].
func (f *FracTimer) Frac() float64 {
	now := f.eng.Now()
	total := f.total
	if f.on {
		total += now - f.onSince
	}
	dur := now - f.since
	if dur <= 0 {
		return 0
	}
	return float64(total) / float64(dur)
}

// Reset starts a new window, preserving the instantaneous condition.
func (f *FracTimer) Reset() {
	f.total = 0
	f.since = f.eng.Now()
	if f.on {
		f.onSince = f.eng.Now()
	}
}

// Samples accumulates scalar observations (e.g. per-window bank deviation)
// and summarizes them as a CDF.
type Samples struct {
	xs []float64
	// sorted memoizes the sorted view so repeated quantile reads (every
	// percentile of a rendered CDF) sort the window once instead of
	// re-copying and re-sorting the full sample slice per call. Add and
	// Reset invalidate it; the backing array is reused across windows.
	sorted []float64
}

// Add records one observation.
func (s *Samples) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = s.sorted[:0]
}

// Len reports the number of observations.
func (s *Samples) Len() int { return len(s.xs) }

// Reset discards all observations.
func (s *Samples) Reset() {
	s.xs = s.xs[:0]
	s.sorted = s.sorted[:0]
}

// Quantile reports the q-quantile (q in [0,1]) of the observations, or 0 if
// none were recorded, using the nearest-rank definition: the smallest
// sample x such that at least a fraction q of the observations are <= x —
// the ceil(q*n)-th smallest. (An earlier version floored int(q*(n-1)),
// which biased small windows low: p99 over 50 samples returned the 49th
// rank instead of the 50th.)
func (s *Samples) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if len(s.sorted) != len(s.xs) {
		s.sorted = append(s.sorted[:0], s.xs...)
		sort.Float64s(s.sorted)
	}
	if q <= 0 {
		return s.sorted[0]
	}
	if q >= 1 {
		return s.sorted[len(s.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.sorted[idx]
}

// FracAtLeast reports the fraction of observations >= x.
func (s *Samples) FracAtLeast(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.xs {
		if v >= x {
			n++
		}
	}
	return float64(n) / float64(len(s.xs))
}

// Mean reports the arithmetic mean of the observations.
func (s *Samples) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}
