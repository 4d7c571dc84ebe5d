// Package cha models the Caching and Home Agent: the node that abstracts the
// LLC and memory from the rest of the host network (§3 of the paper).
//
// The CHA is where the paper's domain asymmetries are enforced:
//
//   - C2M writes replenish their LFB credit at CHA *admission* (the C2M-Write
//     domain spans a single hop), while P2M writes hold their IIO credit
//     until *WPQ admission* (the P2M-Write domain spans the MC).
//   - When the memory controller's write queues fill, writes backlog here
//     (the analytic model's N_waiting input).
//   - When the write-side buffering is exhausted, the ingress stalls and
//     requests block *before* admission — the red regime's second phase, in
//     which latency inflates equitably for C2M and P2M alike (§5.2).
package cha

import (
	"math/rand/v2"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config sets the CHA's buffering and propagation latencies. The propagation
// constants are calibrated so the unloaded domain latencies match §4.2 of
// the paper (~70 ns C2M-Read, ~10 ns C2M-Write, ~300 ns P2M-Write).
type Config struct {
	// ReadEntries bounds in-flight reads holding CHA (TOR-style) entries;
	// it is sized to be non-binding (the read domains are credit-limited at
	// the LFB and IIO instead).
	ReadEntries int
	// WriteEntries bounds writes buffered between admission and WPQ
	// admission. When exhausted, the ingress stalls for everyone.
	WriteEntries int

	ProcDelay     sim.Time // admission -> LLC lookup/route
	ToMC          sim.Time // CHA -> MC propagation
	FromMC        sim.Time // MC data -> CHA propagation
	ToCore        sim.Time // CHA -> core data return
	ToIIO         sim.Time // CHA -> IIO data return
	LLCHitLatency sim.Time // service latency for LLC/DDIO hits

	// C2MHitRatio injects probabilistic LLC hits for compute traffic
	// (default 0: the paper's workloads are non-cache-resident).
	C2MHitRatio float64
	// DDIOEvictionReadFrac is the fraction of DDIO evictions that incur an
	// additional directory/coherence memory read. This is the second half of
	// our modeling hypothesis for the paper's unexplained observation that
	// DDIO worsens C2M degradation (§2.1): eviction handling leaks read
	// traffic into the memory controller.
	DDIOEvictionReadFrac float64
	Seed                 uint64

	// Audit, when non-nil, receives the CHA's entry-pool and probe
	// invariants; AuditDomain overrides the default "cha" domain label
	// (multi-socket hosts disambiguate per socket).
	Audit       *audit.Auditor
	AuditDomain string
}

// DefaultConfig returns the Cascade-Lake-calibrated CHA parameters.
func DefaultConfig() Config {
	return Config{
		ReadEntries:   256,
		WriteEntries:  144,
		ProcDelay:     2 * sim.Nanosecond,
		ToMC:          5 * sim.Nanosecond,
		FromMC:        20 * sim.Nanosecond,
		ToCore:        18 * sim.Nanosecond,
		ToIIO:         18 * sim.Nanosecond,
		LLCHitLatency: 20 * sim.Nanosecond,

		DDIOEvictionReadFrac: 0.25,
		Seed:                 1,
	}
}

// Stats exposes the CHA's uncore-counter analogues.
type Stats struct {
	// AdmitLat measures ingress queueing: Submit -> admission. This is the
	// "CHA admission delay" the paper adds to its formula for quadrant 3.
	AdmitLat *telemetry.Latency
	// WBacklog is the analytic model's N_waiting: admitted writes awaiting
	// WPQ admission.
	WBacklog *telemetry.Integrator
	// ReadMCLat is the paper's "CHA->DRAM read latency" per source
	// (Fig 6a): from CHA dispatch to data return at the CHA.
	ReadMCLat [2]*telemetry.Latency
	// WriteMCLat is the paper's "CHA->MC write latency" per source
	// (Fig 6b/6c): from CHA admission to WPQ admission.
	WriteMCLat [2]*telemetry.Latency
	// P2MReadsInflight tracks in-flight P2M reads holding CHA entries — the
	// paper's lower bound on P2M-Read domain credits (Fig 13d, 14d).
	P2MReadsInflight *telemetry.Integrator
	// RPQBlockLat measures, averaged over all reads, the time spent blocked
	// between the CHA and a full RPQ — queueing the formula's O_RPQ cannot
	// see (the analogue of the paper's CHA-backpressure correction).
	RPQBlockLat *telemetry.Latency
	// DDIO outcomes.
	DDIOHits, DDIOWritebacks *telemetry.Counter
	LLCHitsC2M               *telemetry.Counter
}

// Reset starts a new measurement window.
func (s *Stats) Reset() {
	s.AdmitLat.Reset()
	s.WBacklog.Reset()
	for i := range s.ReadMCLat {
		s.ReadMCLat[i].Reset()
		s.WriteMCLat[i].Reset()
	}
	s.P2MReadsInflight.Reset()
	s.RPQBlockLat.Reset()
	s.DDIOHits.Reset()
	s.DDIOWritebacks.Reset()
	s.LLCHitsC2M.Reset()
}

// CHA is the caching/home agent.
type CHA struct {
	eng  *sim.Engine
	cfg  Config
	mc   *dram.Controller
	ddio *cache.DDIO
	rng  *rand.Rand

	readInUse  int
	writeInUse int
	admitQ     reqQueue
	readRetry  []*mem.Request   // admitted reads waiting for RPQ space
	wBacklog   [][]*mem.Request // per channel: admitted writes waiting for WPQ space, FIFO
	wBacklogN  int              // writes in wBacklog, over all channels
	dirPending reqQueue         // directory reads waiting for a read entry

	// reqs pools the requests the CHA originates itself: DDIO eviction
	// writebacks and directory reads.
	reqs mem.Pool

	// Bound handlers, created once at construction so the per-request
	// pipeline stages schedule without allocating closures; ddioFree pools
	// the writeback-carrying args of DDIO write-completion events.
	processFn    sim.EventFunc // admission -> process(r)
	llcReadFn    sim.EventFunc // LLC/DDIO read hit service
	dispatchRdFn sim.EventFunc // CHA -> MC read dispatch
	backlogFn    sim.EventFunc // CHA -> MC write backlog entry
	returnFn     sim.EventFunc // data return -> requester Done
	readDoneFn   sim.EventFunc // MC read data -> CHA
	ddioFree     []*ddioWriteArg

	stats *Stats
}

// ddioWriteArg carries a DDIO write completion (and its optional eviction
// writeback) through the engine.
type ddioWriteArg struct {
	c     *CHA
	r     *mem.Request
	wb    mem.Addr
	hasWB bool
}

// ddioWriteEvent dispatches a pooled DDIO write completion.
func ddioWriteEvent(arg any) {
	a := arg.(*ddioWriteArg)
	c, r, wb, hasWB := a.c, a.r, a.wb, a.hasWB
	a.c, a.r = nil, nil
	c.ddioFree = append(c.ddioFree, a)
	c.finishDDIOWrite(r, wb, hasWB)
}

func (c *CHA) newDDIOWriteArg(r *mem.Request, wb mem.Addr, hasWB bool) *ddioWriteArg {
	if n := len(c.ddioFree); n > 0 {
		a := c.ddioFree[n-1]
		c.ddioFree = c.ddioFree[:n-1]
		a.c, a.r, a.wb, a.hasWB = c, r, wb, hasWB
		return a
	}
	return &ddioWriteArg{c: c, r: r, wb: wb, hasWB: hasWB}
}

// New builds a CHA over the given memory controller and DDIO region (ddio
// may be nil for a host without DDIO). It registers itself as the
// controller's client.
func New(eng *sim.Engine, cfg Config, mc *dram.Controller, ddio *cache.DDIO) *CHA {
	if ddio == nil {
		ddio = cache.NewDDIO(cache.DDIOConfig{})
	}
	c := &CHA{
		eng:  eng,
		cfg:  cfg,
		mc:   mc,
		ddio: ddio,
		rng:  sim.RNG(cfg.Seed ^ 0xc4a),
		stats: &Stats{
			AdmitLat:         telemetry.NewLatency(eng),
			WBacklog:         telemetry.NewIntegrator(eng),
			P2MReadsInflight: telemetry.NewIntegrator(eng),
			RPQBlockLat:      telemetry.NewLatency(eng),
			DDIOHits:         telemetry.NewCounter(eng),
			DDIOWritebacks:   telemetry.NewCounter(eng),
			LLCHitsC2M:       telemetry.NewCounter(eng),
		},
	}
	for i := range c.stats.ReadMCLat {
		c.stats.ReadMCLat[i] = telemetry.NewLatency(eng)
		c.stats.WriteMCLat[i] = telemetry.NewLatency(eng)
	}
	c.processFn = c.processEvent
	c.llcReadFn = c.llcReadEvent
	c.dispatchRdFn = c.dispatchReadEvent
	c.backlogFn = c.backlogEvent
	c.returnFn = c.returnEvent
	c.readDoneFn = c.readDoneEvent
	c.wBacklog = make([][]*mem.Request, mc.Channels())
	mc.SetClient(c)
	if aud := cfg.Audit; aud.Enabled() {
		domain := cfg.AuditDomain
		if domain == "" {
			domain = "cha"
		}
		aud.Pool(domain, "read_entries", cfg.ReadEntries, func() int { return cfg.ReadEntries - c.readInUse })
		aud.Pool(domain, "write_entries", cfg.WriteEntries, func() int { return cfg.WriteEntries - c.writeInUse })
		aud.Gauge(domain, "wbacklog", c.stats.WBacklog, func() int { return c.wBacklogN })
		aud.Latency(domain, "admit_lat", c.stats.AdmitLat)
		aud.Latency(domain, "read_mc_lat_c2m", c.stats.ReadMCLat[0])
		aud.Latency(domain, "read_mc_lat_p2m", c.stats.ReadMCLat[1])
		aud.Latency(domain, "write_mc_lat_c2m", c.stats.WriteMCLat[0])
		aud.Latency(domain, "write_mc_lat_p2m", c.stats.WriteMCLat[1])
	}
	return c
}

func (c *CHA) processEvent(arg any) { c.process(arg.(*mem.Request)) }

func (c *CHA) llcReadEvent(arg any) {
	r := arg.(*mem.Request)
	c.freeRead(r)
	c.completeAfterReturn(r)
}

func (c *CHA) backlogEvent(arg any) { c.toBacklog(arg.(*mem.Request)) }

// returnEvent completes a read at its requester. It is the release point of
// every read the CHA serves.
func (c *CHA) returnEvent(arg any) {
	r := arg.(*mem.Request)
	r.TDone = c.eng.Now()
	if r.Done != nil {
		r.Done(r)
	}
	r.Release()
}

// Stats returns the CHA probes.
func (c *CHA) Stats() *Stats { return c.stats }

// DDIO returns the DDIO region (for experiment inspection).
func (c *CHA) DDIO() *cache.DDIO { return c.ddio }

// Submit delivers a request to the CHA ingress. The caller has already
// applied its own propagation delay (core->CHA or IIO->CHA).
func (c *CHA) Submit(r *mem.Request) {
	r.TCHAEnter = c.eng.Now()
	c.stats.AdmitLat.Enter()
	c.admitQ.push(r)
	c.tryAdmit()
}

// hasEntry reports whether the head request's entry class has capacity.
func (c *CHA) hasEntry(r *mem.Request) bool {
	if r.Kind == mem.Read {
		return c.readInUse < c.cfg.ReadEntries
	}
	return c.writeInUse < c.cfg.WriteEntries
}

// tryAdmit admits requests in FIFO order. A blocked head blocks everything
// behind it: the ingress is a single pipeline, which is exactly how write
// backpressure comes to delay reads in the red regime.
func (c *CHA) tryAdmit() {
	for c.admitQ.n > 0 {
		r := c.admitQ.front()
		if !c.hasEntry(r) {
			return
		}
		c.admitQ.pop()
		c.stats.AdmitLat.Exit()
		r.TCHAAdmit = c.eng.Now()
		if r.Kind == mem.Read {
			c.readInUse++
			if r.Source == mem.P2M {
				c.stats.P2MReadsInflight.Add(1)
			}
		} else {
			c.writeInUse++
			c.stats.WriteMCLat[r.Source].Enter()
			if r.Source == mem.C2M && r.Done != nil {
				// C2M-Write domain ends here: the LFB credit is replenished
				// as soon as the request is admitted to the CHA (§4.1).
				r.TDone = c.eng.Now()
				r.Done(r)
			}
		}
		c.eng.AfterFunc(c.cfg.ProcDelay, c.processFn, r)
	}
}

func (c *CHA) freeRead(r *mem.Request) {
	c.readInUse--
	if r.Source == mem.P2M {
		c.stats.P2MReadsInflight.Add(-1)
	}
	c.drainDirectoryReads()
	c.tryAdmit()
}

func (c *CHA) freeWrite() {
	c.writeInUse--
	c.tryAdmit()
}

// process routes an admitted request: LLC/DDIO lookup, then MC dispatch.
func (c *CHA) process(r *mem.Request) {
	if r.Source == mem.P2M && c.ddio.Enabled() {
		c.processDDIO(r)
		return
	}
	if r.Source == mem.C2M && r.Kind == mem.Read && c.cfg.C2MHitRatio > 0 &&
		c.rng.Float64() < c.cfg.C2MHitRatio {
		c.stats.LLCHitsC2M.Inc()
		c.eng.AfterFunc(c.cfg.LLCHitLatency, c.llcReadFn, r)
		return
	}
	c.dispatch(r)
}

// processDDIO handles P2M traffic against the DDIO LLC ways.
func (c *CHA) processDDIO(r *mem.Request) {
	if r.Kind == mem.Read {
		if c.ddio.Read(r.Addr) {
			c.stats.DDIOHits.Inc()
			c.eng.AfterFunc(c.cfg.LLCHitLatency, c.llcReadFn, r)
			return
		}
		c.dispatch(r)
		return
	}
	// DMA write: allocate into the DDIO ways. The P2M write completes at the
	// LLC; a dirty eviction (the steady state for oversized buffers) emits a
	// writeback that takes the memory-write path without holding IIO credits.
	hit, wb, hasWB := c.ddio.Write(r.Addr)
	if hit {
		c.stats.DDIOHits.Inc()
	}
	c.eng.AfterFunc(c.cfg.LLCHitLatency, ddioWriteEvent, c.newDDIOWriteArg(r, wb, hasWB))
}

// finishDDIOWrite completes a DMA write at the LLC and emits its eviction
// writeback, if any. It is the DMA write's release point.
func (c *CHA) finishDDIOWrite(r *mem.Request, wb mem.Addr, hasWB bool) {
	// Complete the DMA write: IIO credit released at LLC admission.
	r.TDone = c.eng.Now()
	if r.Done != nil {
		r.Done(r)
	}
	if hasWB {
		c.stats.DDIOWritebacks.Inc()
		evict := c.reqs.Get()
		evict.Addr, evict.Kind, evict.Source, evict.Origin = wb, mem.Write, mem.P2M, r.Origin
		evict.TAlloc = c.eng.Now()
		evict.TCHAEnter = c.eng.Now()
		evict.TCHAAdmit = c.eng.Now()
		// The eviction inherits the original DMA write's CHA entry (and
		// its WriteMCLat sample): the entry frees only when the
		// writeback reaches the WPQ, which is how DDIO converts
		// eviction pressure into ingress backpressure.
		c.toBacklog(evict)
		if c.cfg.DDIOEvictionReadFrac > 0 && c.rng.Float64() < c.cfg.DDIOEvictionReadFrac {
			c.directoryRead(r.Origin, wb)
		}
	} else {
		// The write's CHA->MC journey ends at the LLC: close its WriteMCLat
		// sample. (Evicting writes instead hand the sample to the writeback,
		// which exits in drainWrites at WPQ admission.)
		c.stats.WriteMCLat[r.Source].Exit()
		c.freeWrite()
	}
	r.Release()
}

// directoryRead injects the eviction-handling coherence read (the DDIO
// penalty hypothesis). It occupies a CHA read entry and the RPQ like any
// other P2M read but holds no IIO credit; when the read-entry pool is
// exhausted it parks until an entry frees rather than overcommitting the
// pool.
func (c *CHA) directoryRead(origin int, addr mem.Addr) {
	r := c.reqs.Get()
	r.Addr, r.Kind, r.Source, r.Origin = addr, mem.Read, mem.P2M, origin
	r.TAlloc = c.eng.Now()
	r.TCHAEnter = c.eng.Now()
	r.TCHAAdmit = c.eng.Now()
	c.dirPending.push(r)
	c.drainDirectoryReads()
}

// drainDirectoryReads dispatches parked directory reads while read entries
// are available.
func (c *CHA) drainDirectoryReads() {
	for c.dirPending.n > 0 && c.readInUse < c.cfg.ReadEntries {
		r := c.dirPending.pop()
		c.readInUse++
		c.stats.P2MReadsInflight.Add(1)
		c.dispatch(r)
	}
}

// dispatch sends a miss to the memory controller.
func (c *CHA) dispatch(r *mem.Request) {
	if r.Kind == mem.Read {
		c.eng.AfterFunc(c.cfg.ToMC, c.dispatchRdFn, r)
		return
	}
	c.eng.AfterFunc(c.cfg.ToMC, c.backlogFn, r)
}

// dispatchReadEvent lands a read at the MC, parking it on the retry list if
// the RPQ is full.
func (c *CHA) dispatchReadEvent(arg any) {
	r := arg.(*mem.Request)
	c.stats.ReadMCLat[r.Source].Enter()
	c.stats.RPQBlockLat.Enter()
	if c.mc.TryEnqueue(r) {
		c.stats.RPQBlockLat.Exit()
		return
	}
	c.readRetry = append(c.readRetry, r)
}

func (c *CHA) toBacklog(r *mem.Request) {
	c.stats.WBacklog.Add(1)
	ch := c.mc.ChannelOf(r.Addr)
	c.wBacklog[ch] = append(c.wBacklog[ch], r)
	c.wBacklogN++
	c.drainWrites(ch)
}

// drainWrites pushes channel ch's backlogged writes into its WPQ while it
// has space, in FIFO order. Only the channel that just gained a write or
// freed a WPQ slot can admit one: every other backlogged write failed at
// its channel's last drain, and that WPQ has not drained since, because a
// WPQ slot frees only in a burst completion, which calls WriteComplete.
// The whole FIFO is scanned, so with WPQReserveP2M a P2M write may pass a
// C2M write blocked on the same channel.
func (c *CHA) drainWrites(ch int) {
	q := c.wBacklog[ch]
	kept := q[:0]
	for _, r := range q {
		if c.mc.TryEnqueue(r) {
			c.wBacklogN--
			c.stats.WBacklog.Add(-1)
			c.stats.WriteMCLat[r.Source].Exit()
			if r.Source == mem.P2M && r.Done != nil && r.TDone == 0 {
				// P2M-Write domain ends at WPQ admission (§4.1): replenish
				// the IIO credit now.
				r.TDone = c.eng.Now()
				r.Done(r)
			}
			c.freeWrite()
			continue
		}
		kept = append(kept, r)
	}
	clear(q[len(kept):])
	c.wBacklog[ch] = kept
}

// retryReads re-attempts RPQ dispatch for reads blocked on a full queue.
func (c *CHA) retryReads() {
	if len(c.readRetry) == 0 {
		return
	}
	kept := c.readRetry[:0]
	for _, r := range c.readRetry {
		if c.mc.TryEnqueue(r) {
			c.stats.RPQBlockLat.Exit()
			continue
		}
		kept = append(kept, r)
	}
	c.readRetry = kept
}

// completeAfterReturn delivers read data (or an LLC-hit response) to the
// requester with the appropriate return propagation.
func (c *CHA) completeAfterReturn(r *mem.Request) {
	if r.Source == mem.P2M {
		c.eng.AfterFunc(c.cfg.ToIIO, c.returnFn, r)
		return
	}
	c.eng.AfterFunc(c.cfg.ToCore, c.returnFn, r)
}

// readDoneEvent lands read data back at the CHA after FromMC propagation.
func (c *CHA) readDoneEvent(arg any) {
	r := arg.(*mem.Request)
	c.stats.ReadMCLat[r.Source].Exit()
	c.freeRead(r)
	c.completeAfterReturn(r)
}

// ReadComplete implements dram.Client: a read burst finished on the channel.
func (c *CHA) ReadComplete(r *mem.Request) {
	c.retryReads()
	c.eng.AfterFunc(c.cfg.FromMC, c.readDoneFn, r)
}

// WriteComplete implements dram.Client: the write's WPQ slot is free, so
// drain its channel's write backlog. It is the release point of every write
// that reaches DRAM.
func (c *CHA) WriteComplete(r *mem.Request) {
	c.drainWrites(c.mc.ChannelOf(r.Addr))
	r.Release()
}

// reqQueue is a FIFO of requests on a power-of-two ring, so a queue that
// never drains reuses its backing array instead of reallocating it.
type reqQueue struct {
	buf  []*mem.Request
	head int
	n    int
}

func (q *reqQueue) front() *mem.Request { return q.buf[q.head] }

func (q *reqQueue) push(r *mem.Request) {
	if q.n == len(q.buf) {
		nb := make([]*mem.Request, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *reqQueue) pop() *mem.Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}
