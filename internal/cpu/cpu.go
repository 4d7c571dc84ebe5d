// Package cpu models compute cores as seen by the host network: a demand
// access stream gated by the core's Line Fill Buffer (LFB).
//
// The LFB is the credit pool of both C2M domains (§4.1): a read holds its
// entry from allocation until data returns from DRAM (the C2M-Read domain
// spans all hops to DRAM), while a write holds its entry only until the
// request is admitted to the CHA (the C2M-Write domain spans a single hop).
// Cores issue instructions orders of magnitude faster than the unloaded
// domain latency, so a memory-bound core keeps all credits in flight and its
// throughput is exactly C·64/L — which is why any latency inflation turns
// directly into C2M throughput degradation (§5.1).
package cpu

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Access is one demand access produced by a Generator.
type Access struct {
	Addr mem.Addr
	Kind mem.Kind
}

// Generator supplies a core's access stream.
type Generator interface {
	// Poll asks for the next access. If ok is true and at <= now, the access
	// is issued immediately; if at > now the core retries at that time
	// (compute delay). If ok is false the generator is blocked on an
	// outstanding access (dependent chain) and is re-polled after the next
	// completion; a permanently finished generator simply always returns
	// ok=false.
	Poll(now sim.Time) (acc Access, at sim.Time, ok bool)
	// OnComplete informs the generator that one of its accesses finished.
	OnComplete(acc Access, now sim.Time)
}

// Config sets a core's microarchitectural parameters.
type Config struct {
	LFBEntries int      // 10-12 on the testbeds
	IssueGap   sim.Time // minimum spacing between issues (~1 instr slot)
	ToCHA      sim.Time // L1/L2 miss path: LFB allocation -> CHA ingress
	// Prefetch, when non-nil, is the template for the core's hardware
	// stream prefetcher (each core gets its own copy). Nil disables
	// prefetching, matching the paper's quadrant characterization setup.
	Prefetch *Prefetcher
	// Audit, when non-nil, receives the core's LFB invariants.
	Audit *audit.Auditor
}

// DefaultConfig returns the Cascade-Lake-calibrated core parameters.
func DefaultConfig() Config {
	return Config{
		LFBEntries: 12,
		IssueGap:   300 * sim.Picosecond,
		ToCHA:      8 * sim.Nanosecond,
	}
}

// Stats exposes per-core probes.
type Stats struct {
	// LFBLat is the paper's "LFB latency": credit allocation to
	// replenishment, across reads and writes (Fig 6a/6b). Its Occ tracks
	// entries in use, whose maximum recovers the credit count (the paper
	// measures 10-12).
	LFBLat *telemetry.Latency
	// ReadLat/WriteLat split LFB latency by kind.
	ReadLat  *telemetry.Latency
	WriteLat *telemetry.Latency
	// LinesRead/LinesWritten count completed accesses.
	LinesRead, LinesWritten *telemetry.Counter
}

// Reset starts a new measurement window.
func (s *Stats) Reset() {
	s.LFBLat.Reset()
	s.ReadLat.Reset()
	s.WriteLat.Reset()
	s.LinesRead.Reset()
	s.LinesWritten.Reset()
}

// ReadBytesPerSec reports the core's completed C2M read bandwidth.
func (s *Stats) ReadBytesPerSec() float64 { return s.LinesRead.BytesPerSecond() }

// WriteBytesPerSec reports the core's completed C2M write bandwidth.
func (s *Stats) WriteBytesPerSec() float64 { return s.LinesWritten.BytesPerSecond() }

// Core is one compute core.
type Core struct {
	eng   *sim.Engine
	cfg   Config
	cha   mem.Submitter
	gen   Generator
	index int

	free        int
	nextIssueAt sim.Time
	waker       *sim.Waker
	stats       *Stats

	// submitFn is the bound CHA-submission handler and demandFn/prefetchFn
	// the bound completion handlers, created once so issuing schedules
	// without allocating a closure; reqs pools the core's requests and
	// completeFree the args of prefetch-hit completion events for the same
	// reason.
	submitFn     sim.EventFunc
	demandFn     func(*mem.Request)
	prefetchFn   func(*mem.Request)
	reqs         mem.Pool
	completeFree []*completeArg

	pf     *Prefetcher
	pfWait map[mem.Addr][]Access
	// waitFree keeps emptied pfWait lists for reuse.
	waitFree [][]Access
}

// completeArg carries a prefetch-hit completion through the engine.
type completeArg struct {
	c   *Core
	acc Access
}

// completeEvent dispatches a pooled completion: the arg returns to the pool
// before the completion runs, so back-to-back hits reuse one allocation.
func completeEvent(arg any) {
	a := arg.(*completeArg)
	c, acc := a.c, a.acc
	a.c = nil
	c.completeFree = append(c.completeFree, a)
	c.complete(acc)
}

func (c *Core) newCompleteArg(acc Access) *completeArg {
	if n := len(c.completeFree); n > 0 {
		a := c.completeFree[n-1]
		c.completeFree = c.completeFree[:n-1]
		a.c, a.acc = c, acc
		return a
	}
	return &completeArg{c: c, acc: acc}
}

func (c *Core) submitEvent(arg any) { c.cha.Submit(arg.(*mem.Request)) }

// New builds a core bound to a CHA and an access generator. Call Start to
// begin issuing.
func New(eng *sim.Engine, cfg Config, index int, c mem.Submitter, gen Generator) *Core {
	if cfg.LFBEntries <= 0 {
		panic("cpu: LFBEntries must be positive")
	}
	core := &Core{
		eng:   eng,
		cfg:   cfg,
		cha:   c,
		gen:   gen,
		index: index,
		free:  cfg.LFBEntries,
		stats: &Stats{
			LFBLat:       telemetry.NewLatency(eng),
			ReadLat:      telemetry.NewLatency(eng),
			WriteLat:     telemetry.NewLatency(eng),
			LinesRead:    telemetry.NewCounter(eng),
			LinesWritten: telemetry.NewCounter(eng),
		},
	}
	if cfg.Prefetch != nil {
		pf := *cfg.Prefetch // private copy: prefetcher state is per core
		core.pf = &pf
		core.pfWait = make(map[mem.Addr][]Access)
	}
	core.waker = sim.NewWaker(eng, core.pump)
	core.submitFn = core.submitEvent
	core.demandFn = core.demandDone
	core.prefetchFn = core.prefetchDone
	if aud := cfg.Audit; aud.Enabled() {
		domain := fmt.Sprintf("cpu/core%d", index)
		aud.Pool(domain, "lfb", cfg.LFBEntries, func() int { return core.free })
		aud.Gauge(domain, "lfb_occ", core.stats.LFBLat.Occ, func() int { return cfg.LFBEntries - core.free })
		aud.Latency(domain, "lfb_lat", core.stats.LFBLat)
	}
	return core
}

// Stats returns the core's probes.
func (c *Core) Stats() *Stats { return c.stats }

// Index returns the core's index.
func (c *Core) Index() int { return c.index }

// Start begins issuing at time t.
func (c *Core) Start(t sim.Time) { c.waker.WakeAt(t) }

// pump issues accesses while LFB credits and the generator allow.
func (c *Core) pump() {
	for c.free > 0 {
		now := c.eng.Now()
		if c.nextIssueAt > now {
			c.waker.WakeAt(c.nextIssueAt)
			return
		}
		acc, at, ok := c.gen.Poll(now)
		if !ok {
			return // blocked on a dependency; completions re-wake us
		}
		if at > now {
			c.waker.WakeAt(at)
			return
		}
		c.issue(acc)
	}
}

func (c *Core) issue(acc Access) {
	now := c.eng.Now()
	c.free--
	c.nextIssueAt = now + c.cfg.IssueGap
	c.stats.LFBLat.Enter()
	if acc.Kind == mem.Read {
		c.stats.ReadLat.Enter()
	} else {
		c.stats.WriteLat.Enter()
	}
	if acc.Kind == mem.Read && c.pf.enabled() {
		state := c.pf.lookup(acc.Addr)
		c.train(acc.Addr)
		switch state {
		case pfReady:
			// L2 hit on prefetched data: no memory request.
			c.eng.AfterFunc(c.pf.HitLatency, completeEvent, c.newCompleteArg(acc))
			return
		case pfInflight:
			// The prefetch is already fetching this line; piggyback on it.
			w, ok := c.pfWait[acc.Addr]
			if n := len(c.waitFree); !ok && n > 0 {
				w = c.waitFree[n-1]
				c.waitFree = c.waitFree[:n-1]
			}
			c.pfWait[acc.Addr] = append(w, acc)
			return
		}
	}
	c.send(acc.Addr, acc.Kind, c.demandFn)
}

// send issues one C2M request toward the CHA.
func (c *Core) send(a mem.Addr, k mem.Kind, done func(*mem.Request)) {
	r := c.reqs.Get()
	r.Addr, r.Kind, r.Source, r.Origin = a, k, mem.C2M, c.index
	r.TAlloc = c.eng.Now()
	r.Done = done
	c.eng.AfterFunc(c.cfg.ToCHA, c.submitFn, r)
}

// demandDone completes a demand access: its LFB credit is replenished.
func (c *Core) demandDone(r *mem.Request) {
	c.complete(Access{Addr: r.Addr, Kind: r.Kind})
}

// prefetchDone lands a prefetched line and completes the demand reads that
// piggybacked on it.
func (c *Core) prefetchDone(r *mem.Request) {
	a := r.Addr
	c.pf.complete(a)
	if waiters, ok := c.pfWait[a]; ok {
		delete(c.pfWait, a)
		for _, acc := range waiters {
			c.complete(acc)
		}
		c.waitFree = append(c.waitFree, waiters[:0])
	}
}

// train feeds the prefetcher and launches the prefetches it requests.
func (c *Core) train(a mem.Addr) {
	for _, addr := range c.pf.observe(a) {
		c.issuePrefetch(addr)
	}
}

// issuePrefetch sends a prefetch read. It holds a prefetcher slot, not an
// LFB entry, and generates the same C2M memory traffic a demand read would.
func (c *Core) issuePrefetch(a mem.Addr) { c.send(a, mem.Read, c.prefetchFn) }

func (c *Core) complete(acc Access) {
	c.free++
	c.stats.LFBLat.Exit()
	if acc.Kind == mem.Read {
		c.stats.ReadLat.Exit()
		c.stats.LinesRead.Inc()
	} else {
		c.stats.WriteLat.Exit()
		c.stats.LinesWritten.Inc()
	}
	c.gen.OnComplete(acc, c.eng.Now())
	c.waker.Wake()
}

// Nudge re-polls the core's generator. External event sources (e.g. network
// data landing in a socket buffer) use this to wake a core whose generator
// reported itself blocked while nothing was in flight.
func (c *Core) Nudge() { c.waker.Wake() }

// SetIssueGap overrides the core's minimum issue spacing at runtime. Host
// congestion controllers (internal/hostcc) use this as their throttle
// actuator, modeling per-core memory-bandwidth allocation hardware.
func (c *Core) SetIssueGap(g sim.Time) {
	if g < 0 {
		g = 0
	}
	c.cfg.IssueGap = g
}

// IssueGap reports the current minimum issue spacing.
func (c *Core) IssueGap() sim.Time { return c.cfg.IssueGap }
