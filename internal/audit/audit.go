// Package audit is the simulator's invariant checker. Every credit domain
// of the host network (LFB entries, CHA pools, DRAM queues, IIO credits,
// link serialization, PFC pause state, the hostcc window) registers its
// conservation invariants here at construction; the auditor evaluates them
// between events at a configurable cadence and again at the end of every
// measurement window, reporting each violation with the owning domain, the
// counter that broke, and the simulated timestamp.
//
// The paper's methodology stands on these invariants: throughput is C·64/L
// only if credits are conserved (acquired + free == capacity, never
// negative, bounded by configuration), and the per-domain latencies are
// trustworthy only if the Little's-law probes agree with direct
// per-request timestamps. A leak in any one pool silently corrupts every
// downstream figure, so the auditor exists to turn such leaks into loud,
// attributed failures.
//
// Auditing is strictly zero-overhead when off: a nil *Auditor is a valid
// receiver for every registration method, components hold no audit state,
// and the engine's event hook stays nil, so the hot path pays a single
// untaken branch.
package audit

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config tunes the auditor.
type Config struct {
	// Enabled turns auditing on. When false, New returns nil and every
	// registration call no-ops.
	Enabled bool
	// Every is the event cadence: invariants are evaluated after every
	// Every-th executed event. 0 selects the default (4096).
	Every uint64
	// FailFast panics on the first violation with a full report. Off, the
	// auditor collects violations for inspection via Violations/Report.
	FailFast bool
	// LatAbsNs and LatRelTol bound the Little's-law cross-check: a probe
	// fails when |direct - littles| > LatAbsNs + LatRelTol*max(direct,
	// littles). Zero selects the defaults (25 ns, 0.35). The tolerance is
	// deliberately loose — the two estimators differ at window boundaries —
	// because the bugs it exists to catch (unbalanced Enter/Exit) produce
	// errors that grow without bound.
	LatAbsNs  float64
	LatRelTol float64
	// MinSamples is the minimum number of completed requests in the window
	// before the cross-check applies (low-rate probes are too noisy to
	// judge). 0 selects the default (64).
	MinSamples uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Every == 0 {
		c.Every = 4096
	}
	if c.LatAbsNs == 0 {
		c.LatAbsNs = 25
	}
	if c.LatRelTol == 0 {
		c.LatRelTol = 0.35
	}
	if c.MinSamples == 0 {
		c.MinSamples = 64
	}
	return c
}

// Violation is one detected invariant breach.
type Violation struct {
	Domain  string   // owning component, e.g. "iio", "cpu/core3", "dram"
	Counter string   // the invariant that broke, e.g. "write_credits"
	At      sim.Time // simulated timestamp of detection
	Detail  string   // human-readable explanation with the observed values
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s at %v: %s", v.Domain, v.Counter, v.At, v.Detail)
}

// check is one registered invariant. fn returns "" while the invariant
// holds and a detail string when it breaks.
type check struct {
	domain, counter string
	fn              func() string
	tripped         bool // first violation recorded; don't spam duplicates
}

// latCheck is one registered Little's-law cross-check.
type latCheck struct {
	domain, counter string
	l               *telemetry.Latency
	tripped         bool // CheckEnd may run more than once per window
}

// Auditor evaluates registered invariants. A nil Auditor is valid and inert.
type Auditor struct {
	eng        *sim.Engine
	cfg        Config
	checks     []check
	lats       []latCheck
	violations []Violation
}

// New builds an auditor over the engine and installs its event-cadence
// hook. It returns nil when cfg.Enabled is false, so callers can thread
// the result through component configs unconditionally.
func New(eng *sim.Engine, cfg Config) *Auditor {
	if !cfg.Enabled {
		return nil
	}
	a := &Auditor{eng: eng, cfg: cfg.withDefaults()}
	eng.SetEventHook(a.cfg.Every, a.CheckNow)
	return a
}

// Enabled reports whether auditing is active (nil-safe).
func (a *Auditor) Enabled() bool { return a != nil }

// Check registers a generic invariant: fn returns ok=false with a detail
// string when the invariant is violated.
func (a *Auditor) Check(domain, counter string, fn func() (ok bool, detail string)) {
	if a == nil {
		return
	}
	a.checks = append(a.checks, check{domain: domain, counter: counter, fn: func() string {
		if ok, detail := fn(); !ok {
			return detail
		}
		return ""
	}})
}

// Pool registers a credit-pool conservation invariant: the pool's free
// count must stay within [0, capacity] (equivalently, acquired + free ==
// capacity with both sides non-negative).
func (a *Auditor) Pool(domain, counter string, capacity int, free func() int) {
	if a == nil {
		return
	}
	a.checks = append(a.checks, check{domain: domain, counter: counter, fn: func() string {
		f := free()
		if f < 0 {
			return fmt.Sprintf("pool over-acquired: free=%d < 0 (capacity %d)", f, capacity)
		}
		if f > capacity {
			return fmt.Sprintf("pool over-released: free=%d > capacity %d", f, capacity)
		}
		return ""
	}})
}

// Gauge registers a telemetry-consistency invariant: the integrator's
// instantaneous level must equal the component's own ground-truth counter.
func (a *Auditor) Gauge(domain, counter string, probe *telemetry.Integrator, want func() int) {
	if a == nil {
		return
	}
	a.checks = append(a.checks, check{domain: domain, counter: counter, fn: func() string {
		if got, w := probe.Level(), want(); got != w {
			return fmt.Sprintf("probe level %d diverged from component state %d", got, w)
		}
		return ""
	}})
}

// Bounds registers a range invariant: lo <= val() <= hi.
func (a *Auditor) Bounds(domain, counter string, lo, hi int64, val func() int64) {
	if a == nil {
		return
	}
	a.checks = append(a.checks, check{domain: domain, counter: counter, fn: func() string {
		if v := val(); v < lo || v > hi {
			return fmt.Sprintf("value %d outside [%d, %d]", v, lo, hi)
		}
		return ""
	}})
}

// Latency registers a Little's-law cross-check: at the end of each window
// the probe's O/R average must agree with direct per-request timestamp
// sampling within the configured tolerance. Registration enables the
// probe's direct-sampling shadow.
func (a *Auditor) Latency(domain, counter string, l *telemetry.Latency) {
	if a == nil {
		return
	}
	l.EnableDirectSampling()
	a.lats = append(a.lats, latCheck{domain: domain, counter: counter, l: l})
}

// record files one violation (or panics under FailFast).
func (a *Auditor) record(domain, counter, detail string) {
	v := Violation{Domain: domain, Counter: counter, At: a.eng.Now(), Detail: detail}
	a.violations = append(a.violations, v)
	if a.cfg.FailFast {
		panic("audit: invariant violation\n  " + v.String())
	}
}

// CheckNow evaluates every state invariant immediately. The engine calls
// this at the configured event cadence; tests may call it directly.
func (a *Auditor) CheckNow() {
	if a == nil {
		return
	}
	for i := range a.checks {
		c := &a.checks[i]
		if c.tripped {
			continue
		}
		if detail := c.fn(); detail != "" {
			c.tripped = true
			a.record(c.domain, c.counter, detail)
		}
	}
}

// CheckEnd evaluates state invariants plus the Little's-law cross-checks.
// Hosts call this at the end of every measurement window, when the probes'
// window averages are meaningful.
func (a *Auditor) CheckEnd() {
	if a == nil {
		return
	}
	a.CheckNow()
	for i := range a.lats {
		lc := &a.lats[i]
		if lc.tripped {
			continue
		}
		n := lc.l.DirectCount()
		if n < a.cfg.MinSamples {
			continue
		}
		direct := lc.l.AvgNanosDirect()
		littles := lc.l.AvgNanos()
		if math.IsNaN(littles) {
			lc.tripped = true
			a.record(lc.domain, lc.counter, fmt.Sprintf(
				"degenerate Little's-law window (occupancy without arrivals) despite %d completions", n))
			continue
		}
		tol := a.cfg.LatAbsNs + a.cfg.LatRelTol*math.Max(direct, littles)
		if math.Abs(direct-littles) > tol {
			lc.tripped = true
			a.record(lc.domain, lc.counter, fmt.Sprintf(
				"Little's-law latency %.1f ns disagrees with direct sampling %.1f ns (tol %.1f ns, %d samples)",
				littles, direct, tol, n))
		}
	}
}

// Violations returns the collected violations (nil-safe).
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	return a.violations
}

// Report formats all collected violations, one per line; empty when clean.
func (a *Auditor) Report() string {
	if a == nil || len(a.violations) == 0 {
		return ""
	}
	var b strings.Builder
	for _, v := range a.violations {
		fmt.Fprintf(&b, "%s\n", v.String())
	}
	return b.String()
}
