// Package cxl models a CXL.mem memory expander — the first of the "new
// interconnects" the paper's §7 names as the future of the host network.
//
// An expander is a second memory home behind a serial link: host requests
// cross the link (per-direction cacheline serialization plus propagation),
// are serviced by the device's own memory controller and DRAM, and read
// data crosses back. Two properties follow, both of which the tests pin
// down:
//
//   - Latency: an unloaded CXL read costs the local path plus two link
//     crossings (~70 -> ~250 ns), so an LFB-bound core gets C*64/L of it.
//   - Isolation: CXL-homed traffic does not touch the host's memory
//     controller, so it neither suffers from nor contributes to DRAM-side
//     contention — offloading to CXL trades latency for isolation.
package cxl

import (
	"repro/internal/audit"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config models the expander and its link.
type Config struct {
	// LinkLatency is the one-way propagation (protocol + retimers).
	LinkLatency sim.Time
	// LinePeriod is the per-direction serialization per cacheline
	// (~2 ns at 32 GB/s per direction on a x8 CXL 2.0 port).
	LinePeriod sim.Time
	// Mapper and MC describe the expander's internal memory.
	Mapper mem.MapperConfig
	MC     dram.Config
	// DeviceProc is the expander-side processing per request.
	DeviceProc sim.Time
	// Audit, when non-nil, receives the expander's invariants (its internal
	// memory controller registers under "cxl/mc").
	Audit *audit.Auditor
}

// DefaultConfig returns a single-channel DDR-backed expander behind a
// ~32 GB/s link with ~85 ns one-way latency: unloaded reads land at the
// ~250 ns figure typical of first-generation CXL memory.
func DefaultConfig() Config {
	mc := dram.DefaultConfig()
	return Config{
		LinkLatency: 85 * sim.Nanosecond,
		LinePeriod:  2 * sim.Nanosecond,
		Mapper:      mem.MapperConfig{Channels: 1, Banks: 32, RowBytes: 8192, XORRowIntoBank: true},
		MC:          mc,
		DeviceProc:  10 * sim.Nanosecond,
	}
}

// Stats exposes the expander probes.
type Stats struct {
	// ReadLat measures request arrival at the host port to data delivery
	// back at the host (the CXL round trip minus the requester's own hops).
	ReadLat *telemetry.Latency
	// Reads/Writes count serviced lines.
	Reads, Writes *telemetry.Counter
}

// Reset starts a new measurement window.
func (s *Stats) Reset() {
	s.ReadLat.Reset()
	s.Reads.Reset()
	s.Writes.Reset()
}

// Expander is a CXL.mem device. It implements mem.Submitter, so it can stand
// wherever a CHA can: behind a numa.Router-style mux keyed by address.
type Expander struct {
	eng *sim.Engine
	cfg Config
	mc  *dram.Controller

	// Link serialization, per direction (0 = host->device).
	freeAt [2]sim.Time
	// linePeriod is the live per-line serialization time: cfg.LinePeriod
	// normally, stretched while a lane-degradation fault is active.
	linePeriod sim.Time

	// writes blocked on a full WPQ await retry.
	wBacklog []*mem.Request

	// Bound handlers, created once so per-request link crossings schedule
	// without allocating closures.
	arriveFn   sim.EventFunc
	ackFn      sim.EventFunc
	readBackFn sim.EventFunc

	stats *Stats
}

func (e *Expander) arriveEvent(arg any) { e.arrive(arg.(*mem.Request)) }

// ackEvent lands a posted-write acknowledgment back at the host, and drops
// the ack's reference to the write.
func (e *Expander) ackEvent(arg any) {
	r := arg.(*mem.Request)
	r.TDone = e.eng.Now()
	if r.Done != nil {
		r.Done(r)
	}
	r.Release()
}

// readBackEvent lands read data back at the host. It is a CXL read's
// release point.
func (e *Expander) readBackEvent(arg any) {
	r := arg.(*mem.Request)
	e.stats.Reads.Inc()
	e.stats.ReadLat.Exit()
	r.TDone = e.eng.Now()
	if r.Done != nil {
		r.Done(r)
	}
	r.Release()
}

// New builds an expander.
func New(eng *sim.Engine, cfg Config) *Expander {
	e := &Expander{
		eng: eng,
		cfg: cfg,
		stats: &Stats{
			ReadLat: telemetry.NewLatency(eng),
			Reads:   telemetry.NewCounter(eng),
			Writes:  telemetry.NewCounter(eng),
		},
	}
	cfg.MC.Audit = cfg.Audit
	if cfg.MC.AuditDomain == "" {
		cfg.MC.AuditDomain = "cxl/mc"
	}
	e.cfg = cfg
	e.linePeriod = cfg.LinePeriod
	e.mc = dram.New(eng, cfg.MC, mem.MustMapper(cfg.Mapper), e)
	e.arriveFn = e.arriveEvent
	e.ackFn = e.ackEvent
	e.readBackFn = e.readBackEvent
	if aud := cfg.Audit; aud.Enabled() {
		aud.Latency("cxl", "read_lat", e.stats.ReadLat)
	}
	return e
}

// Stats returns the expander probes.
func (e *Expander) Stats() *Stats { return e.stats }

// serialize reserves a line slot on one link direction.
func (e *Expander) serialize(dir int) sim.Time {
	now := e.eng.Now()
	start := e.freeAt[dir]
	if start < now {
		start = now
	}
	e.freeAt[dir] = start + e.linePeriod
	return e.freeAt[dir] - now
}

// FaultSetLineMult multiplies per-line link serialization time by mult
// (lanes dropping to a degraded width/speed); mult <= 1 restores the
// configured rate. Lines already reserved keep their slots.
func (e *Expander) FaultSetLineMult(mult float64) {
	if mult <= 1 {
		e.linePeriod = e.cfg.LinePeriod
		return
	}
	e.linePeriod = sim.Time(float64(e.cfg.LinePeriod)*mult + 0.5)
}

// MC exposes the expander's internal memory controller (a DRAM fault
// target like the host's own).
func (e *Expander) MC() *dram.Controller { return e.mc }

// Submit implements mem.Submitter: the host-side CXL port.
func (e *Expander) Submit(r *mem.Request) {
	// Outbound crossing: writes carry data (serialize), reads are small.
	var outSer sim.Time
	if r.Kind == mem.Write {
		outSer = e.serialize(0)
	}
	e.stats.ReadLatEnterIfRead(r)
	e.eng.AfterFunc(outSer+e.cfg.LinkLatency+e.cfg.DeviceProc, e.arriveFn, r)
}

// ReadLatEnterIfRead keeps probe bookkeeping in one place.
func (s *Stats) ReadLatEnterIfRead(r *mem.Request) {
	if r.Kind == mem.Read {
		s.ReadLat.Enter()
	}
}

// arrive enqueues a request at the device's memory controller.
func (e *Expander) arrive(r *mem.Request) {
	if r.Kind == mem.Write {
		if !e.mc.TryEnqueue(r) {
			e.wBacklog = append(e.wBacklog, r)
			return
		}
		e.writeAdmitted(r)
		return
	}
	if !e.mc.TryEnqueue(r) {
		// RPQ full: retry on the next completion.
		e.wBacklog = append(e.wBacklog, r)
	}
}

// writeAdmitted completes a write toward the host: CXL.mem writes are
// posted once the device accepts them, with the ack crossing back. The ack
// and the memory controller both hold the write from here, so the ack takes
// a reference of its own.
func (e *Expander) writeAdmitted(r *mem.Request) {
	e.stats.Writes.Inc()
	r.Hold()
	e.eng.AfterFunc(e.cfg.LinkLatency, e.ackFn, r)
}

// drain retries backlogged requests.
func (e *Expander) drain() {
	kept := e.wBacklog[:0]
	for _, r := range e.wBacklog {
		if e.mc.TryEnqueue(r) {
			if r.Kind == mem.Write {
				e.writeAdmitted(r)
			}
			continue
		}
		kept = append(kept, r)
	}
	e.wBacklog = kept
}

// ReadComplete implements dram.Client: data crosses back to the host.
func (e *Expander) ReadComplete(r *mem.Request) {
	e.drain()
	backSer := e.serialize(1)
	e.eng.AfterFunc(backSer+e.cfg.LinkLatency, e.readBackFn, r)
}

// WriteComplete implements dram.Client and drops the memory controller's
// reference to the write.
func (e *Expander) WriteComplete(r *mem.Request) {
	e.drain()
	r.Release()
}
