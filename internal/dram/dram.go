// Package dram models the memory interconnect: per-channel memory
// controllers with separate Read/Write Pending Queues (RPQ/WPQ), the
// unidirectional data channel with read/write mode switching, and DRAM banks
// with open-row policy and ACT/PRE timing.
//
// This is the substrate in which the paper's two root causes of
// queueing-before-saturation live: row misses (PRE/ACT processing delay at
// banks) and load imbalance across banks (static hash mapping), plus the
// write head-of-line blocking and switching delays that the §6 analytical
// model decomposes.
package dram

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Timing collects the DRAM timing constraints used by the simulator; they
// match the constants of the paper's analytical formula (Figures 9 and 10).
type Timing struct {
	TTrans sim.Time // data-burst time for one cacheline on the channel
	TRCD   sim.Time // activate (row open) delay — the formula's tACT
	TRP    sim.Time // precharge (row close) delay — the formula's tPRE
	TCL    sim.Time // column access (CAS) latency
	TWTR   sim.Time // write-to-read mode switch penalty
	TRTW   sim.Time // read-to-write mode switch penalty
}

// DDR4_2933 matches the Cascade Lake testbed's DIMMs: 23.46 GB/s per
// channel (tTrans = 2.73 ns) and tProc = tRP + tRCD + tCL = 45 ns.
func DDR4_2933() Timing {
	return Timing{
		TTrans: 2730 * sim.Picosecond,
		TRCD:   15 * sim.Nanosecond,
		TRP:    15 * sim.Nanosecond,
		TCL:    15 * sim.Nanosecond,
		TWTR:   12 * sim.Nanosecond,
		TRTW:   8 * sim.Nanosecond,
	}
}

// DDR4_3200 matches the Ice Lake testbed's DIMMs: 25.6 GB/s per channel.
func DDR4_3200() Timing {
	return Timing{
		TTrans: 2500 * sim.Picosecond,
		TRCD:   13750 * sim.Picosecond,
		TRP:    13750 * sim.Picosecond,
		TCL:    13750 * sim.Picosecond,
		TWTR:   12 * sim.Nanosecond,
		TRTW:   8 * sim.Nanosecond,
	}
}

// Config configures the memory controller.
type Config struct {
	Timing Timing
	// RPQCap and WPQCap bound per-channel pending reads and writes
	// (including requests currently in service at a bank).
	RPQCap, WPQCap int
	// WPQHigh triggers a switch to write mode.
	WPQHigh int
	// DrainBatch bounds how many writes a single drain serves while reads
	// are waiting. Bounding the drain duty is what lets the WPQ pin at
	// capacity under write overload — the red regime's first phase.
	DrainBatch int
	// WPQOppEntry is the minimum write backlog for an opportunistic drain
	// when the read side is fully idle; it stops the scheduler from paying
	// turnaround penalties for one or two writes at a time.
	WPQOppEntry int
	// MaxWriteAge bounds how long a write may wait before a drain is forced
	// even below the watermarks (so low-rate write streams still complete).
	MaxWriteAge sim.Time
	// ReadDwellMin is the minimum time the channel stays in read mode
	// between drains while reads are flowing. It caps the write duty cycle,
	// reflecting the read preference of real controllers; under write
	// overload the WPQ pins at capacity and writes backlog upstream at the
	// CHA — the red regime's entry condition (§5.2).
	ReadDwellMin sim.Time
	// SchedWindow bounds how many waiting requests the scheduler scans for a
	// serviceable candidate (FR-FCFS-style lookahead).
	SchedWindow int
	// PipelineAhead bounds how far beyond "now" the channel may be committed
	// before the scheduler waits; it models the command-issue lookahead of a
	// real controller.
	PipelineAhead sim.Time
	// BankSampleWindow is the per-channel read count per bank-load sample
	// (the paper samples every 1000 requests); 0 disables sampling.
	BankSampleWindow int
	// WPQReserveP2M reserves this many per-channel WPQ slots for peripheral
	// writes — the §7 "memory controller scheduling for C2M/P2M isolation"
	// direction. C2M writebacks cannot occupy the reserved slots, so CHA
	// write backlog no longer starves the P2M-Write domain. 0 disables the
	// mechanism (the hardware the paper studies has no such isolation).
	WPQReserveP2M int

	// Audit, when non-nil, receives the controller's RPQ/WPQ invariants;
	// AuditDomain overrides the default "dram" domain label (the CXL
	// expander's internal controller registers as "cxl/mc").
	Audit       *audit.Auditor
	AuditDomain string
}

// DefaultConfig returns the Cascade-Lake-calibrated controller parameters.
func DefaultConfig() Config {
	return Config{
		Timing:           DDR4_2933(),
		RPQCap:           48,
		WPQCap:           48,
		WPQHigh:          40,
		DrainBatch:       20,
		WPQOppEntry:      8,
		MaxWriteAge:      250 * sim.Nanosecond,
		ReadDwellMin:     50 * sim.Nanosecond,
		SchedWindow:      16,
		PipelineAhead:    100 * sim.Nanosecond,
		BankSampleWindow: 1000,
	}
}

// Client receives controller notifications.
type Client interface {
	// ReadComplete fires when a read's data burst finishes on the channel;
	// the client owns any propagation delay back to the requester.
	ReadComplete(r *mem.Request)
	// WriteComplete fires when a write's burst finishes on the channel,
	// freeing its WPQ slot. Clients with backlogged writes retry then.
	WriteComplete(r *mem.Request)
}

type bank struct {
	openRow int64 // -1 means closed
	readyAt sim.Time
}

// KindStats counts row-buffer outcomes for one (source, kind) class,
// supplying the analytic model's #ACT and #PREconflict inputs.
type KindStats struct {
	Lines       *telemetry.Counter
	RowHits     *telemetry.Counter
	ACTs        *telemetry.Counter // activations (row was closed or conflicting)
	PREConflict *telemetry.Counter // precharges forced by a row conflict
}

func newKindStats(eng *sim.Engine) *KindStats {
	return &KindStats{
		Lines:       telemetry.NewCounter(eng),
		RowHits:     telemetry.NewCounter(eng),
		ACTs:        telemetry.NewCounter(eng),
		PREConflict: telemetry.NewCounter(eng),
	}
}

// RowMissRatio reports 1 - hits/lines.
func (k *KindStats) RowMissRatio() float64 {
	if k.Lines.Count() == 0 {
		return 0
	}
	return 1 - float64(k.RowHits.Count())/float64(k.Lines.Count())
}

func (k *KindStats) reset() {
	k.Lines.Reset()
	k.RowHits.Reset()
	k.ACTs.Reset()
	k.PREConflict.Reset()
}

// Stats exposes the controller's uncore-counter analogues, aggregated across
// channels.
type Stats struct {
	WPQOcc   *telemetry.Integrator
	WPQFull  *telemetry.FracTimer // any channel's WPQ at capacity
	Switches *telemetry.Counter   // read<->write mode transitions (all channels)
	// ReadLat measures TMCEnq -> burst completion via Little's law. Its Occ
	// is the total of pending reads across channels (the RPQ occupancy).
	ReadLat *telemetry.Latency
	// Per (source, kind) row-buffer outcome counters.
	C2MRead, C2MWrite, P2MRead, P2MWrite *KindStats
	// BankDeviation holds max/avg bank-load ratios sampled every
	// BankSampleWindow reads per channel (Fig 7d).
	BankDeviation *telemetry.Samples
}

func (s *Stats) kindStats(src mem.Source, k mem.Kind) *KindStats {
	switch {
	case src == mem.C2M && k == mem.Read:
		return s.C2MRead
	case src == mem.C2M && k == mem.Write:
		return s.C2MWrite
	case src == mem.P2M && k == mem.Read:
		return s.P2MRead
	default:
		return s.P2MWrite
	}
}

// Reset starts a new measurement window on every probe.
func (s *Stats) Reset() {
	s.WPQOcc.Reset()
	s.WPQFull.Reset()
	s.Switches.Reset()
	s.ReadLat.Reset()
	s.C2MRead.reset()
	s.C2MWrite.reset()
	s.P2MRead.reset()
	s.P2MWrite.reset()
	s.BankDeviation.Reset()
}

// LinesRead reports total cachelines read in the window.
func (s *Stats) LinesRead() uint64 { return s.C2MRead.Lines.Count() + s.P2MRead.Lines.Count() }

// LinesWritten reports total cachelines written in the window.
func (s *Stats) LinesWritten() uint64 { return s.C2MWrite.Lines.Count() + s.P2MWrite.Lines.Count() }

type channel struct {
	ctl          *Controller
	idx          int
	mode         mem.Kind
	busyTill     sim.Time
	banks        []bank
	rdWait       []*mem.Request // waiting, FIFO arrival order
	wrWait       []*mem.Request
	rdCount      int // waiting + in service
	wrCount      int
	drainIssued  int // writes issued in the current drain
	lastDrainEnd sim.Time
	waker        *sim.Waker
	burstFn      sim.EventFunc // bound burstDone handler, created once

	// timing points at the constants the scheduler uses: the controller's
	// configured Timing normally, or throttled (a scaled copy) while a
	// fault-injected channel slowdown is active.
	timing    *Timing
	throttled Timing

	// bank-load sampling state
	bankLoads   []int
	sampleCount int
}

// Controller is the multi-channel memory controller.
type Controller struct {
	eng    *sim.Engine
	cfg    Config
	mapper *mem.Mapper
	client Client
	chans  []*channel
	stats  *Stats
}

// New builds a controller over the given address mapper. The client may be
// nil initially and set later with SetClient (host wiring is circular:
// CHA -> MC -> CHA).
func New(eng *sim.Engine, cfg Config, mapper *mem.Mapper, client Client) *Controller {
	if cfg.RPQCap <= 0 || cfg.WPQCap <= 0 {
		panic(fmt.Sprintf("dram: queue capacities must be positive: %+v", cfg))
	}
	if cfg.WPQHigh > cfg.WPQCap || cfg.WPQHigh <= 0 {
		panic(fmt.Sprintf("dram: need 0 < WPQHigh <= WPQCap: %+v", cfg))
	}
	if cfg.DrainBatch <= 0 {
		panic(fmt.Sprintf("dram: DrainBatch must be positive: %+v", cfg))
	}
	if cfg.WPQReserveP2M < 0 || cfg.WPQReserveP2M >= cfg.WPQCap {
		panic(fmt.Sprintf("dram: need 0 <= WPQReserveP2M < WPQCap: %+v", cfg))
	}
	if cfg.SchedWindow <= 0 {
		cfg.SchedWindow = 16
	}
	c := &Controller{
		eng:    eng,
		cfg:    cfg,
		mapper: mapper,
		client: client,
		stats: &Stats{
			WPQOcc:        telemetry.NewIntegrator(eng),
			WPQFull:       telemetry.NewFracTimer(eng),
			Switches:      telemetry.NewCounter(eng),
			ReadLat:       telemetry.NewLatency(eng),
			C2MRead:       newKindStats(eng),
			C2MWrite:      newKindStats(eng),
			P2MRead:       newKindStats(eng),
			P2MWrite:      newKindStats(eng),
			BankDeviation: &telemetry.Samples{},
		},
	}
	for i := 0; i < mapper.Channels(); i++ {
		ch := &channel{
			ctl:       c,
			idx:       i,
			mode:      mem.Read,
			banks:     make([]bank, mapper.Banks()),
			bankLoads: make([]int, mapper.Banks()),
		}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		ch.timing = &c.cfg.Timing
		ch.waker = sim.NewWaker(eng, ch.kick)
		ch.burstFn = ch.burstDoneEvent
		c.chans = append(c.chans, ch)
	}
	if aud := cfg.Audit; aud.Enabled() {
		domain := cfg.AuditDomain
		if domain == "" {
			domain = "dram"
		}
		for _, ch := range c.chans {
			ch := ch
			counter := fmt.Sprintf("ch%d_rpq", ch.idx)
			aud.Check(domain, counter, func() (bool, string) {
				if ch.rdCount < 0 || ch.rdCount > cfg.RPQCap || len(ch.rdWait) > ch.rdCount {
					return false, fmt.Sprintf("rdCount=%d waiting=%d cap=%d", ch.rdCount, len(ch.rdWait), cfg.RPQCap)
				}
				return true, ""
			})
			counter = fmt.Sprintf("ch%d_wpq", ch.idx)
			aud.Check(domain, counter, func() (bool, string) {
				if ch.wrCount < 0 || ch.wrCount > cfg.WPQCap || len(ch.wrWait) > ch.wrCount {
					return false, fmt.Sprintf("wrCount=%d waiting=%d cap=%d", ch.wrCount, len(ch.wrWait), cfg.WPQCap)
				}
				return true, ""
			})
		}
		aud.Gauge(domain, "rpq_occ", c.stats.ReadLat.Occ, func() int {
			n := 0
			for _, ch := range c.chans {
				n += ch.rdCount
			}
			return n
		})
		aud.Gauge(domain, "wpq_occ", c.stats.WPQOcc, func() int {
			n := 0
			for _, ch := range c.chans {
				n += ch.wrCount
			}
			return n
		})
		aud.Latency(domain, "read_lat", c.stats.ReadLat)
	}
	return c
}

// SetClient installs the notification sink.
func (c *Controller) SetClient(cl Client) { c.client = cl }

// FaultSetChannelSlowdown multiplies one channel's timing constants by
// factor (thermal throttling / DVFS on the DIMM); factor <= 1 restores the
// configured timing. The channel index wraps modulo the channel count.
// Only future command scheduling uses the new constants — bursts already
// committed keep their times, as on real hardware.
func (c *Controller) FaultSetChannelSlowdown(channel int, factor float64) {
	ch := c.chans[channel%len(c.chans)]
	if factor <= 1 {
		ch.timing = &c.cfg.Timing
	} else {
		t := c.cfg.Timing
		scale := func(v sim.Time) sim.Time { return sim.Time(float64(v)*factor + 0.5) }
		ch.throttled = Timing{
			TTrans: scale(t.TTrans),
			TRCD:   scale(t.TRCD),
			TRP:    scale(t.TRP),
			TCL:    scale(t.TCL),
			TWTR:   scale(t.TWTR),
			TRTW:   scale(t.TRTW),
		}
		ch.timing = &ch.throttled
	}
	ch.waker.Wake()
}

// FaultBankOffline takes (channel, bank) out of service until the given
// simulated time: the open row is lost and every access to the bank queues
// behind the outage (the FR-FCFS scan naturally prefers other banks
// meanwhile). Indices wrap modulo the controller geometry.
func (c *Controller) FaultBankOffline(channel, bankIdx int, until sim.Time) {
	ch := c.chans[channel%len(c.chans)]
	b := &ch.banks[bankIdx%len(ch.banks)]
	if b.readyAt < until {
		b.readyAt = until
	}
	b.openRow = -1
	ch.waker.Wake()
}

// Stats returns the controller's probes.
func (c *Controller) Stats() *Stats { return c.stats }

// Channels reports the channel count.
func (c *Controller) Channels() int { return len(c.chans) }

// Timing returns the configured timing constants (used by the analytic model).
func (c *Controller) Timing() Timing { return c.cfg.Timing }

// WPQCap reports the per-channel write queue capacity.
func (c *Controller) WPQCap() int { return c.cfg.WPQCap }

// ChannelOf reports which channel services the request's address.
func (c *Controller) ChannelOf(a mem.Addr) int { return c.mapper.Map(a).Channel }

// WPQHasSpace reports whether the channel serving addr can accept a write.
func (c *Controller) WPQHasSpace(a mem.Addr) bool {
	ch := c.chans[c.mapper.Map(a).Channel]
	return ch.wrCount < c.cfg.WPQCap
}

// TryEnqueue routes a request to its channel queue. It returns false when
// the relevant queue is full; the caller (the CHA) holds the request and
// retries on ReadComplete/WriteComplete notifications.
func (c *Controller) TryEnqueue(r *mem.Request) bool {
	coord := r.MapCoord(c.mapper)
	ch := c.chans[coord.Channel]
	switch r.Kind {
	case mem.Read:
		if ch.rdCount >= c.cfg.RPQCap {
			return false
		}
		ch.rdCount++
		c.stats.ReadLat.Enter()
		ch.rdWait = append(ch.rdWait, r)
	case mem.Write:
		limit := c.cfg.WPQCap
		if r.Source == mem.C2M {
			limit -= c.cfg.WPQReserveP2M
		}
		if ch.wrCount >= limit {
			return false
		}
		ch.wrCount++
		c.stats.WPQOcc.Add(1)
		ch.wrWait = append(ch.wrWait, r)
		c.updateWPQFull()
	}
	r.TMCEnq = c.eng.Now()
	ch.waker.Wake()
	return true
}

func (c *Controller) updateWPQFull() {
	full := false
	for _, ch := range c.chans {
		if ch.wrCount >= c.cfg.WPQCap {
			full = true
			break
		}
	}
	c.stats.WPQFull.Set(full)
}

// prepDelay computes the bank-side delay for accessing (bank, row) and
// updates row-outcome counters.
func (ch *channel) prepDelay(b *bank, row int64, ks *KindStats) sim.Time {
	t := ch.timing
	ks.Lines.Inc()
	switch {
	case b.openRow == row:
		ks.RowHits.Inc()
		return t.TCL
	case b.openRow == -1:
		ks.ACTs.Inc()
		return t.TRCD + t.TCL
	default:
		ks.ACTs.Inc()
		ks.PREConflict.Inc()
		return t.TRP + t.TRCD + t.TCL
	}
}

// pickIndex implements the FR-FCFS-style scan: the oldest request whose data
// can be ready by the time the channel frees wins; otherwise the earliest-
// ready request in the scan window.
func (ch *channel) pickIndex(q []*mem.Request) int {
	now := ch.ctl.eng.Now()
	t := ch.timing
	chanFree := ch.busyTill
	if chanFree < now {
		chanFree = now
	}
	window := len(q)
	if window > ch.ctl.cfg.SchedWindow {
		window = ch.ctl.cfg.SchedWindow
	}
	best, bestReady := -1, sim.Time(1<<62)
	for i := 0; i < window; i++ {
		coord := q[i].MapCoord(ch.ctl.mapper)
		b := &ch.banks[coord.Bank]
		start := b.readyAt
		if start < now {
			start = now
		}
		var delay sim.Time
		switch {
		case b.openRow == coord.Row:
			delay = t.TCL
		case b.openRow == -1:
			delay = t.TRCD + t.TCL
		default:
			delay = t.TRP + t.TRCD + t.TCL
		}
		ready := start + delay
		if ready <= chanFree {
			return i
		}
		if ready < bestReady {
			best, bestReady = i, ready
		}
	}
	return best
}

func (ch *channel) sampleBank(bankIdx int) {
	w := ch.ctl.cfg.BankSampleWindow
	if w <= 0 {
		return
	}
	ch.bankLoads[bankIdx]++
	ch.sampleCount++
	if ch.sampleCount < w {
		return
	}
	max, total := 0, 0
	for i, n := range ch.bankLoads {
		total += n
		if n > max {
			max = n
		}
		ch.bankLoads[i] = 0
	}
	ch.sampleCount = 0
	avg := float64(total) / float64(len(ch.bankLoads))
	if avg > 0 {
		ch.ctl.stats.BankDeviation.Add(float64(max) / avg)
	}
}

// desiredMode applies the drain policy with hysteresis: enter write mode
// when the WPQ crosses its high watermark or the read side is fully idle;
// leave write mode once drained to the low watermark (or empty) with reads
// waiting.
func (ch *channel) desiredMode() mem.Kind {
	cfg := &ch.ctl.cfg
	if ch.mode == mem.Read {
		now := ch.ctl.eng.Now()
		dwelled := now-ch.lastDrainEnd >= cfg.ReadDwellMin
		if ch.wrCount >= cfg.WPQHigh && dwelled {
			return mem.Write
		}
		if len(ch.wrWait) > 0 {
			// Opportunistic drain on a fully idle read side — but only for a
			// worthwhile batch, since the turnaround penalties this inflicts
			// on the next reads (the write head-of-line blocking of the §6
			// formula) are paid per drain, not per write.
			if dwelled && len(ch.rdWait) == 0 && ch.rdCount == 0 && ch.wrCount >= cfg.WPQOppEntry {
				return mem.Write
			}
			// Age-based drain: never park writes forever.
			if dwelled && now-ch.wrWait[0].TMCEnq >= cfg.MaxWriteAge {
				return mem.Write
			}
		}
		return mem.Read
	}
	if len(ch.rdWait) > 0 && (ch.drainIssued >= cfg.DrainBatch || len(ch.wrWait) == 0) {
		return mem.Read
	}
	return mem.Write
}

// kick runs the per-channel scheduler: choose mode, then issue requests
// while the pipeline window allows.
func (ch *channel) kick() {
	eng := ch.ctl.eng
	cfg := &ch.ctl.cfg
	t := ch.timing
	for {
		now := eng.Now()
		if want := ch.desiredMode(); want != ch.mode {
			ch.mode = want
			ch.ctl.stats.Switches.Inc()
			if ch.busyTill < now {
				ch.busyTill = now
			}
			if want == mem.Write {
				ch.busyTill += t.TRTW
				ch.drainIssued = 0
			} else {
				ch.busyTill += t.TWTR
				ch.lastDrainEnd = now
			}
		}
		var q *[]*mem.Request
		if ch.mode == mem.Read {
			q = &ch.rdWait
		} else {
			q = &ch.wrWait
		}
		if len(*q) == 0 {
			// No work in the current mode. The next enqueue or burst
			// completion re-kicks the scheduler; parked writes get an
			// age-based wake so they always drain.
			if ch.mode == mem.Read && len(ch.wrWait) > 0 {
				at := ch.wrWait[0].TMCEnq + cfg.MaxWriteAge
				if d := ch.lastDrainEnd + cfg.ReadDwellMin; d > at {
					at = d
				}
				ch.waker.WakeAt(at)
			}
			return
		}
		// Respect the pipeline window: don't commit the channel too far out.
		if ch.busyTill > now+cfg.PipelineAhead {
			ch.waker.WakeAt(ch.busyTill - cfg.PipelineAhead)
			return
		}
		idx := ch.pickIndex(*q)
		r := (*q)[idx]
		*q = append((*q)[:idx], (*q)[idx+1:]...)
		if ch.mode == mem.Write {
			ch.drainIssued++
		}
		ch.issue(r)
	}
}

func (ch *channel) issue(r *mem.Request) {
	eng := ch.ctl.eng
	now := eng.Now()
	t := ch.timing
	coord := r.MapCoord(ch.ctl.mapper)
	b := &ch.banks[coord.Bank]
	ks := ch.ctl.stats.kindStats(r.Source, r.Kind)
	start := b.readyAt
	if start < now {
		start = now
	}
	delay := ch.prepDelay(b, coord.Row, ks)
	dataReady := start + delay
	burstStart := dataReady
	if burstStart < ch.busyTill {
		burstStart = ch.busyTill
	}
	burstEnd := burstStart + t.TTrans
	ch.busyTill = burstEnd
	b.openRow = coord.Row
	// The bank is occupied for its PRE/ACT work plus one column-command slot
	// (tCCD ~ tTrans); the CAS latency itself pipelines, so row hits to an
	// open row stream at the burst rate.
	b.readyAt = start + (delay - t.TCL) + t.TTrans
	r.TIssue = now
	if r.Kind == mem.Read {
		ch.sampleBank(coord.Bank)
	}
	eng.AtFunc(burstEnd, ch.burstFn, r)
}

func (ch *channel) burstDoneEvent(arg any) { ch.burstDone(arg.(*mem.Request)) }

func (ch *channel) burstDone(r *mem.Request) {
	c := ch.ctl
	r.TBurst = c.eng.Now()
	switch r.Kind {
	case mem.Read:
		ch.rdCount--
		c.stats.ReadLat.Exit()
		if c.client != nil {
			c.client.ReadComplete(r)
		}
	case mem.Write:
		ch.wrCount--
		c.stats.WPQOcc.Add(-1)
		c.updateWPQFull()
		if c.client != nil {
			c.client.WriteComplete(r)
		}
	}
	ch.waker.Wake()
}
