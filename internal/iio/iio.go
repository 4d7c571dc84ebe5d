// Package iio models the Integrated IO controller: the attachment point of
// peripheral devices and the credit pool of both P2M domains (§3, §4.1).
//
// A DMA write consumes an IIO write-buffer entry (~92 on the testbed) from
// PCIe send until WPQ admission — the P2M-Write domain spans two hops, IIO to
// MC. A DMA read consumes a read-buffer entry (>164) until data returns from
// DRAM and the PCIe completion is issued — PCIe reads are non-posted, so the
// P2M-Read domain spans all hops to DRAM. The unloaded P2M-Write latency of
// ~300 ns and the spare credits above what the PCIe link rate requires
// (~65 of 92) are exactly why the blue regime leaves P2M throughput intact.
package iio

import (
	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config sets the IIO's credit pools and the PCIe link model.
type Config struct {
	WriteCredits int // IIO write buffer entries (~92)
	ReadCredits  int // IIO read buffer entries (>164)

	// LinePeriodUp is the upstream (device -> host) serialization time per
	// cacheline: 64 B / achievable PCIe bandwidth (~4.57 ns at 14 GB/s).
	LinePeriodUp sim.Time
	// LinePeriodDown is the downstream (host -> device) per-line time.
	LinePeriodDown sim.Time

	// DeviceToIIO is the constant from DMA initiation to the request being
	// processed at the IIO (DMA engine, TLP processing); calibrated so the
	// unloaded P2M-Write domain latency lands at ~300 ns.
	DeviceToIIO sim.Time
	// ReqToIIO is the same constant for (small) read-request TLPs.
	ReqToIIO sim.Time
	// ToCHA is the IIO -> CHA propagation.
	ToCHA sim.Time
	// CreditReturn is the completion-notification delay that ends a write's
	// credit hold after WPQ admission.
	CreditReturn sim.Time

	// Audit, when non-nil, receives the IIO's credit-pool invariants;
	// AuditDomain overrides the default "iio" domain label.
	Audit       *audit.Auditor
	AuditDomain string
}

// DefaultConfig returns the Cascade-Lake-calibrated IIO parameters
// (aggregate PCIe ~14 GB/s achievable of 16 GB/s theoretical).
func DefaultConfig() Config {
	return Config{
		WriteCredits:   92,
		ReadCredits:    164,
		LinePeriodUp:   4570 * sim.Picosecond,
		LinePeriodDown: 4570 * sim.Picosecond,
		DeviceToIIO:    120 * sim.Nanosecond,
		ReqToIIO:       100 * sim.Nanosecond,
		ToCHA:          20 * sim.Nanosecond,
		CreditReturn:   148 * sim.Nanosecond,
	}
}

// Stats exposes the IIO probes.
type Stats struct {
	// WriteOcc/ReadOcc track credit usage; the paper's Fig 7(g) and Fig
	// 22(f) are exactly these occupancies.
	WriteOcc *telemetry.Integrator
	ReadOcc  *telemetry.Integrator
	// WriteLat/ReadLat are the paper's "IIO latency": credit allocation to
	// replenishment (Fig 6c).
	WriteLat *telemetry.Latency
	ReadLat  *telemetry.Latency
	// LinesIn/LinesOut count completed DMA writes and reads.
	LinesIn, LinesOut *telemetry.Counter
}

// Reset starts a new measurement window.
func (s *Stats) Reset() {
	s.WriteOcc.Reset()
	s.ReadOcc.Reset()
	s.WriteLat.Reset()
	s.ReadLat.Reset()
	s.LinesIn.Reset()
	s.LinesOut.Reset()
}

// IIO is the integrated IO controller.
type IIO struct {
	eng *sim.Engine
	cfg Config
	cha mem.Submitter

	wrFree, rdFree int
	// holdWant/holdHeld implement fault-injected credit starvation: held
	// credits are acquired through the pool exactly like real traffic (so
	// the occupancy gauges and conservation invariants keep holding) but
	// are never replenished until the fault clears. When held < want,
	// returning credits are re-grabbed before waiters see them.
	holdWantWr, holdHeldWr int
	holdWantRd, holdHeldRd int
	upFreeAt, dnFreeAt     sim.Time
	rdPaceAt               sim.Time
	wrWaiters              []func()
	rdWaiters              []func()
	wrSpare, rdSpare       []func()
	wrRot, rdRot           int
	wrLinkWaker            *sim.Waker
	rdPaceWaker            *sim.Waker
	stats                  *Stats

	// submitFn is the bound CHA-submission handler and writeFn/readFn the
	// bound completion handlers, created once so DMA issue schedules
	// without allocating a closure; reqs pools the DMA requests and
	// doneFree the args of credit-return and completion-delivery events.
	submitFn        sim.EventFunc
	writeFn, readFn func(*mem.Request)
	reqs            mem.Pool
	doneFree        []*doneArg
}

// doneArg carries a credit return (write) or completion delivery (read)
// through the engine, with the caller's optional done callback.
type doneArg struct {
	i    *IIO
	done func()
}

func (i *IIO) newDoneArg(done func()) *doneArg {
	if n := len(i.doneFree); n > 0 {
		a := i.doneFree[n-1]
		i.doneFree = i.doneFree[:n-1]
		a.i, a.done = i, done
		return a
	}
	return &doneArg{i: i, done: done}
}

// creditReturnEvent ends a write's credit hold after the completion
// notification propagates back from the WPQ (or DDIO LLC).
func creditReturnEvent(arg any) {
	a := arg.(*doneArg)
	i, done := a.i, a.done
	a.i, a.done = nil, nil
	i.doneFree = append(i.doneFree, a)
	i.wrFree++
	i.stats.WriteOcc.Add(-1)
	i.stats.WriteLat.Exit()
	i.stats.LinesIn.Inc()
	if i.holdHeldWr < i.holdWantWr {
		// An active starvation fault wants this credit: grab it before any
		// waiter can, keeping the pool pinned at the faulted size.
		i.wrFree--
		i.holdHeldWr++
		i.stats.WriteOcc.Add(1)
	}
	if done != nil {
		done()
	}
	fire(&i.wrWaiters, &i.wrSpare, &i.wrRot)
}

// readDeliveredEvent frees a read credit once the data has serialized over
// the downstream link.
func readDeliveredEvent(arg any) {
	a := arg.(*doneArg)
	i, done := a.i, a.done
	a.i, a.done = nil, nil
	i.doneFree = append(i.doneFree, a)
	i.rdFree++
	i.stats.ReadOcc.Add(-1)
	i.stats.ReadLat.Exit()
	i.stats.LinesOut.Inc()
	if i.holdHeldRd < i.holdWantRd {
		i.rdFree--
		i.holdHeldRd++
		i.stats.ReadOcc.Add(1)
	}
	if done != nil {
		done()
	}
	fire(&i.rdWaiters, &i.rdSpare, &i.rdRot)
}

func (i *IIO) submitEvent(arg any) { i.cha.Submit(arg.(*mem.Request)) }

// New builds an IIO bound to an ingress (a CHA, or a NUMA router).
func New(eng *sim.Engine, cfg Config, c mem.Submitter) *IIO {
	if cfg.WriteCredits <= 0 || cfg.ReadCredits <= 0 {
		panic("iio: credit pools must be positive")
	}
	i := &IIO{
		eng:    eng,
		cfg:    cfg,
		cha:    c,
		wrFree: cfg.WriteCredits,
		rdFree: cfg.ReadCredits,
		stats: &Stats{
			WriteOcc: telemetry.NewIntegrator(eng),
			ReadOcc:  telemetry.NewIntegrator(eng),
			WriteLat: telemetry.NewLatency(eng),
			ReadLat:  telemetry.NewLatency(eng),
			LinesIn:  telemetry.NewCounter(eng),
			LinesOut: telemetry.NewCounter(eng),
		},
	}
	i.wrLinkWaker = sim.NewWaker(eng, func() { fire(&i.wrWaiters, &i.wrSpare, &i.wrRot) })
	i.rdPaceWaker = sim.NewWaker(eng, func() { fire(&i.rdWaiters, &i.rdSpare, &i.rdRot) })
	i.submitFn = i.submitEvent
	i.writeFn, i.readFn = i.writeDone, i.readDone
	if aud := cfg.Audit; aud.Enabled() {
		domain := cfg.AuditDomain
		if domain == "" {
			domain = "iio"
		}
		aud.Pool(domain, "write_credits", cfg.WriteCredits, func() int { return i.wrFree })
		aud.Pool(domain, "read_credits", cfg.ReadCredits, func() int { return i.rdFree })
		aud.Gauge(domain, "write_occ", i.stats.WriteOcc, func() int { return cfg.WriteCredits - i.wrFree })
		aud.Gauge(domain, "read_occ", i.stats.ReadOcc, func() int { return cfg.ReadCredits - i.rdFree })
		aud.Latency(domain, "write_lat", i.stats.WriteLat)
		aud.Latency(domain, "read_lat", i.stats.ReadLat)
	}
	return i
}

// InjectDoubleRelease returns one write credit that was never acquired — a
// deliberate conservation bug. It exists solely so tests can prove the
// auditor detects and attributes violations; nothing in the simulator calls
// it.
func (i *IIO) InjectDoubleRelease() { i.wrFree++ }

// Stats returns the IIO probes.
func (i *IIO) Stats() *Stats { return i.stats }

// WriteCreditCapacity reports the configured write-credit pool size.
func (i *IIO) WriteCreditCapacity() int { return i.cfg.WriteCredits }

// ReadCreditCapacity reports the configured read-credit pool size.
func (i *IIO) ReadCreditCapacity() int { return i.cfg.ReadCredits }

// FaultHoldCredits pins up to nWrite write and nRead read credits as held by
// an injected starvation fault. Held credits are taken from the free pool
// (immediately for whatever is free, and as traffic replenishes for the
// rest) and count as occupied, so every registered invariant keeps holding
// mid-fault. (0, 0) releases all held credits back to the pool and wakes
// waiters. Targets are clamped to leave at least one credit usable, since a
// fully-confiscated pool would deadlock the domain rather than degrade it.
func (i *IIO) FaultHoldCredits(nWrite, nRead int) {
	clamp := func(n, cap int) int {
		if n < 0 {
			n = 0
		}
		if n >= cap {
			n = cap - 1
		}
		return n
	}
	i.holdWantWr = clamp(nWrite, i.cfg.WriteCredits)
	i.holdWantRd = clamp(nRead, i.cfg.ReadCredits)
	// Release excess holds.
	if d := i.holdHeldWr - i.holdWantWr; d > 0 {
		i.holdHeldWr -= d
		i.wrFree += d
		i.stats.WriteOcc.Add(-d)
		fire(&i.wrWaiters, &i.wrSpare, &i.wrRot)
	}
	if d := i.holdHeldRd - i.holdWantRd; d > 0 {
		i.holdHeldRd -= d
		i.rdFree += d
		i.stats.ReadOcc.Add(-d)
		fire(&i.rdWaiters, &i.rdSpare, &i.rdRot)
	}
	// Grab whatever is free right now; the rest is captured as credits
	// return in creditReturnEvent/readDeliveredEvent.
	for i.holdHeldWr < i.holdWantWr && i.wrFree > 0 {
		i.wrFree--
		i.holdHeldWr++
		i.stats.WriteOcc.Add(1)
	}
	for i.holdHeldRd < i.holdWantRd && i.rdFree > 0 {
		i.rdFree--
		i.holdHeldRd++
		i.stats.ReadOcc.Add(1)
	}
}

// FaultCreditsHeld reports credits currently pinned by a starvation fault.
func (i *IIO) FaultCreditsHeld() (write, read int) { return i.holdHeldWr, i.holdHeldRd }

// WriteCreditsFree reports currently available write credits.
func (i *IIO) WriteCreditsFree() int { return i.wrFree }

// ReadCreditsFree reports currently available read credits.
func (i *IIO) ReadCreditsFree() int { return i.rdFree }

// NotifyWrite registers a one-shot callback for when a write credit frees.
func (i *IIO) NotifyWrite(fn func()) { i.wrWaiters = append(i.wrWaiters, fn) }

// NotifyRead registers a one-shot callback for when a read credit frees.
func (i *IIO) NotifyRead(fn func()) { i.rdWaiters = append(i.rdWaiters, fn) }

// fire drains the waiter list, rotating the start index across calls so
// that a waiter that re-registers immediately (a saturating device pump)
// cannot starve its peers of credits or link slots.
// Callbacks that re-register during the drain append to the spare buffer;
// the two arrays swap roles each call so steady-state registration never
// allocates.
func fire(waiters, spare *[]func(), rot *int) {
	if len(*waiters) == 0 {
		return
	}
	ws := *waiters
	*waiters = (*spare)[:0]
	*spare = nil
	*rot++
	start := *rot % len(ws)
	for k := 0; k < len(ws); k++ {
		idx := (start + k) % len(ws)
		ws[idx]()
		ws[idx] = nil
	}
	*spare = ws[:0]
}

// TryWrite starts a one-line DMA write (device -> memory). It returns false
// if no write credit is available or the upstream link is still serializing
// an earlier line (the credit is consumed when the TLP is sent, so issue is
// paced at the link rate); done (optional) runs when the credit is
// replenished.
func (i *IIO) TryWrite(addr mem.Addr, origin int, done func()) bool {
	now := i.eng.Now()
	if i.wrFree == 0 {
		return false
	}
	if i.upFreeAt > now {
		// Link busy: wake write waiters when it frees (coalesced).
		i.wrLinkWaker.WakeAt(i.upFreeAt)
		return false
	}
	i.wrFree--
	i.stats.WriteOcc.Add(1)
	i.stats.WriteLat.Enter()
	// Serialize on the upstream link.
	i.upFreeAt = now + i.cfg.LinePeriodUp
	arrive := i.upFreeAt + i.cfg.DeviceToIIO
	i.eng.AtFunc(arrive+i.cfg.ToCHA, i.submitFn, i.request(addr, mem.Write, origin, i.writeFn, done))
	return true
}

// request takes a P2M request from the pool; done travels in its Notify.
func (i *IIO) request(addr mem.Addr, k mem.Kind, origin int, handler func(*mem.Request), done func()) *mem.Request {
	r := i.reqs.Get()
	r.Addr, r.Kind, r.Source, r.Origin = addr, k, mem.P2M, origin
	r.TAlloc = i.eng.Now()
	r.Done, r.Notify = handler, done
	return r
}

// writeDone handles WPQ (or DDIO LLC) admission: the credit returns after
// the completion notification propagates back.
func (i *IIO) writeDone(r *mem.Request) {
	i.eng.AfterFunc(i.cfg.CreditReturn, creditReturnEvent, i.newDoneArg(r.Notify))
}

// readDone handles data back at the IIO: it serializes the completion on
// the downstream link, then frees the credit.
func (i *IIO) readDone(r *mem.Request) {
	dnStart := i.dnFreeAt
	if n := i.eng.Now(); dnStart < n {
		dnStart = n
	}
	i.dnFreeAt = dnStart + i.cfg.LinePeriodDown
	i.eng.AtFunc(i.dnFreeAt, readDeliveredEvent, i.newDoneArg(r.Notify))
}

// TryRead starts a one-line DMA read (memory -> device). It returns false if
// no read credit is available or the device-side issue pipeline (paced at
// the downstream link rate, since that is the steady-state completion rate)
// is busy; done (optional) runs when the data has been delivered over the
// downstream link.
func (i *IIO) TryRead(addr mem.Addr, origin int, done func()) bool {
	now := i.eng.Now()
	if i.rdFree == 0 {
		return false
	}
	if i.rdPaceAt > now {
		i.rdPaceWaker.WakeAt(i.rdPaceAt)
		return false
	}
	i.rdPaceAt = now + i.cfg.LinePeriodDown
	i.rdFree--
	i.stats.ReadOcc.Add(1)
	i.stats.ReadLat.Enter()
	i.eng.AtFunc(now+i.cfg.ReqToIIO+i.cfg.ToCHA, i.submitFn, i.request(addr, mem.Read, origin, i.readFn, done))
	return true
}
