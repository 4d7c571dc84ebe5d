// Package netsim models the networking case studies of the paper's §2.3 and
// Appendices C-E: a NIC generating P2M traffic with either a hardware-
// offloaded lossless transport (RoCE with Priority Flow Control) or an
// in-kernel lossy transport (DCTCP), colocated with C2M workloads.
//
// The key structural difference from local storage is the feedback loop: a
// NIC cannot slow the remote sender directly — RoCE asserts PFC pauses when
// its receive buffering fills, while DCTCP relies on ECN marks and packet
// drops whose effects arrive a round-trip later.
package netsim

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/iio"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RDMAWriteConfig models ib_write_bw server-side: the remote peer streams
// RDMA WRITEs at line rate; every payload cacheline becomes a P2M DMA write.
type RDMAWriteConfig struct {
	// LinePeriod is the wire arrival period per cacheline (~5.2 ns at the
	// ~98 Gbps the paper's ConnectX-5 sustains).
	LinePeriod sim.Time
	// QueueCapLines bounds NIC receive buffering (lossless via PFC).
	QueueCapLines int
	// PauseHi/PauseLo are the PFC XOFF/XON thresholds in lines.
	PauseHi, PauseLo int
	// PauseDelay is the pause-frame propagation + reaction time.
	PauseDelay sim.Time
	// BufBase is the DMA target region.
	BufBase mem.Addr
	// BufBytes is the region size (ring).
	BufBytes int64

	// Audit, when non-nil, receives the NIC's queue and PFC invariants.
	Audit *audit.Auditor
}

// DefaultRDMAWriteConfig matches the paper's 100 Gbps RoCE/PFC setup.
func DefaultRDMAWriteConfig(base mem.Addr) RDMAWriteConfig {
	return RDMAWriteConfig{
		LinePeriod:    5220 * sim.Picosecond, // ~98 Gbps
		QueueCapLines: 8192,                  // 512 KB NIC buffer
		PauseHi:       6144,
		PauseLo:       2048,
		PauseDelay:    600 * sim.Nanosecond,
		BufBase:       base,
		BufBytes:      1 << 30,
	}
}

// RDMAWrite is the server-side RoCE write receiver.
type RDMAWrite struct {
	eng *sim.Engine
	cfg RDMAWriteConfig
	io  *iio.IIO

	queue    int  // lines buffered in the NIC
	paused   bool // sender currently paused (after propagation)
	xoff     bool // pause asserted at the NIC
	linkDown bool // fault: wire link down, arrivals suppressed
	storm    bool // fault: downstream congestion forces XOFF regardless of queue
	nextLine int64
	waiting  bool
	wake     func()        // bound credit-wait callback, created once
	dmaDone  func()        // bound DMA completion (Delivered.Inc), created once
	arriveFn sim.EventFunc // bound arrival handler: one event per wire line

	// Delivered counts lines whose DMA completed (the app-visible
	// throughput of the RDMA transfer).
	Delivered *telemetry.Counter
	// Dropped counts wire lines lost to a full NIC buffer. PFC exists to
	// keep this at zero; a nonzero count means the thresholds or the pause
	// propagation model broke losslessness.
	Dropped *telemetry.Counter
	// PauseFrac measures the fraction of time PFC pause is asserted.
	PauseFrac *telemetry.FracTimer
	// QueueOcc tracks NIC buffer occupancy.
	QueueOcc *telemetry.Integrator
}

// NewRDMAWrite builds the receiver; call Start to begin the stream.
func NewRDMAWrite(eng *sim.Engine, cfg RDMAWriteConfig, io *iio.IIO) *RDMAWrite {
	if cfg.PauseLo >= cfg.PauseHi || cfg.PauseHi > cfg.QueueCapLines {
		panic("netsim: PFC thresholds must satisfy lo < hi <= cap")
	}
	w := &RDMAWrite{
		eng:       eng,
		cfg:       cfg,
		io:        io,
		Delivered: telemetry.NewCounter(eng),
		Dropped:   telemetry.NewCounter(eng),
		PauseFrac: telemetry.NewFracTimer(eng),
		QueueOcc:  telemetry.NewIntegrator(eng),
	}
	w.arriveFn = w.arriveEvent
	w.wake = func() { w.waiting = false; w.pump() }
	w.dmaDone = w.Delivered.Inc
	if aud := cfg.Audit; aud.Enabled() {
		aud.Gauge("rdma", "queue_occ", w.QueueOcc, func() int { return w.queue })
		aud.Bounds("rdma", "queue", 0, int64(cfg.QueueCapLines), func() int64 { return int64(w.queue) })
		aud.Check("rdma", "pfc", func() (bool, string) {
			// updatePFC runs after every queue change, so at event boundaries
			// XOFF implies the queue has not drained to XON and vice versa.
			if w.xoff != w.PauseFrac.On() {
				return false, fmt.Sprintf("xoff=%v but PauseFrac.On()=%v", w.xoff, w.PauseFrac.On())
			}
			if w.storm {
				// A pause-storm fault pins XOFF regardless of occupancy; the
				// queue-threshold hysteresis clauses do not apply mid-storm.
				if !w.xoff {
					return false, "pause storm active but XOFF clear"
				}
				return true, ""
			}
			if w.xoff && w.queue <= cfg.PauseLo {
				return false, fmt.Sprintf("XOFF asserted with queue %d <= PauseLo %d", w.queue, cfg.PauseLo)
			}
			if !w.xoff && w.queue >= cfg.PauseHi {
				return false, fmt.Sprintf("XOFF clear with queue %d >= PauseHi %d", w.queue, cfg.PauseHi)
			}
			return true, ""
		})
		aud.Check("rdma", "lossless", func() (bool, string) {
			if n := w.Dropped.Count(); n != 0 {
				return false, fmt.Sprintf("%d lines dropped on a lossless (PFC) NIC", n)
			}
			return true, ""
		})
	}
	return w
}

// Start begins wire arrivals at time t.
func (r *RDMAWrite) Start(t sim.Time) {
	r.eng.AtFunc(t, r.arriveFn, nil)
}

func (r *RDMAWrite) arriveEvent(any) { r.arrive() }

// arrive models one cacheline landing from the wire. A downed link behaves
// like a paused sender: no line lands (and none is dropped — the physical
// layer stops, it does not overrun), but buffered lines keep draining and
// the arrival clock keeps ticking so the stream resumes when the link does.
func (r *RDMAWrite) arrive() {
	if !r.paused && !r.linkDown {
		if r.queue < r.cfg.QueueCapLines {
			r.queue++
			r.QueueOcc.Add(1)
		} else {
			// Buffer overrun: PFC should have paused the sender before the
			// headroom above PauseHi ran out. Losing the line silently would
			// mask a broken pause model, so count it.
			r.Dropped.Inc()
		}
		r.updatePFC()
		r.pump()
	}
	r.eng.AfterFunc(r.cfg.LinePeriod, r.arriveFn, nil)
}

// FaultSetLinkDown suspends (or resumes) wire arrivals.
func (r *RDMAWrite) FaultSetLinkDown(down bool) { r.linkDown = down }

// FaultSetPauseStorm forces PFC XOFF while on, modeling sustained pause
// frames from a congested downstream switch; clearing re-evaluates the
// normal occupancy hysteresis.
func (r *RDMAWrite) FaultSetPauseStorm(on bool) {
	r.storm = on
	r.updatePFC()
}

// pfcApplyEvent lands a pause/resume at the sender after propagation.
func pfcApplyEvent(arg any) {
	r := arg.(*RDMAWrite)
	r.paused = r.xoff
}

// updatePFC asserts/deasserts pause with propagation delay. A pause-storm
// fault overrides the occupancy hysteresis and pins XOFF; when the storm
// clears, the normal thresholds decide (so a queue still above PauseLo
// keeps the pause until it drains, exactly as a real XOFF would).
func (r *RDMAWrite) updatePFC() {
	want := r.xoff
	if !r.xoff && r.queue >= r.cfg.PauseHi {
		want = true
	} else if r.xoff && r.queue <= r.cfg.PauseLo {
		want = false
	}
	if r.storm {
		want = true
	}
	if want != r.xoff {
		r.xoff = want
		r.PauseFrac.Set(want)
		r.eng.AfterFunc(r.cfg.PauseDelay, pfcApplyEvent, r)
	}
}

// pump DMA-writes buffered lines through the IIO.
func (r *RDMAWrite) pump() {
	for r.queue > 0 {
		addr := r.cfg.BufBase + mem.Addr((r.nextLine*mem.LineSize)%r.cfg.BufBytes)
		if !r.io.TryWrite(addr, 0, r.dmaDone) {
			if !r.waiting {
				r.waiting = true
				r.io.NotifyWrite(r.wake)
			}
			return
		}
		r.nextLine++
		r.queue--
		r.QueueOcc.Add(-1)
		r.updatePFC()
	}
}

// BytesPerSec reports delivered DMA bandwidth.
func (r *RDMAWrite) BytesPerSec() float64 { return r.Delivered.BytesPerSecond() }

// ResetStats starts a new measurement window.
func (r *RDMAWrite) ResetStats() {
	r.Delivered.Reset()
	r.Dropped.Reset()
	r.PauseFrac.Reset()
	r.QueueOcc.Reset()
}

// RDMARead models ib_read_bw server-side: the remote peer issues RDMA READs,
// so the NIC DMA-reads server memory and streams it out — P2M read traffic
// paced at the wire rate.
type RDMARead struct {
	eng *sim.Engine
	cfg RDMAWriteConfig // reuses LinePeriod/Buf fields
	io  *iio.IIO

	nextLine int64
	paceAt   sim.Time
	waiting  bool
	linkDown bool          // fault: wire link down, no read requests arrive
	wake     func()        // bound credit-wait callback, created once
	dmaDone  func()        // bound DMA completion (Delivered.Inc), created once
	pumpFn   sim.EventFunc // bound pump handler: one event per paced line

	Delivered *telemetry.Counter
}

// NewRDMARead builds the read responder.
func NewRDMARead(eng *sim.Engine, cfg RDMAWriteConfig, io *iio.IIO) *RDMARead {
	rd := &RDMARead{eng: eng, cfg: cfg, io: io, Delivered: telemetry.NewCounter(eng)}
	rd.pumpFn = rd.pumpEvent
	rd.wake = func() { rd.waiting = false; rd.pump() }
	rd.dmaDone = rd.Delivered.Inc
	return rd
}

// Start begins serving the read stream at time t.
func (r *RDMARead) Start(t sim.Time) { r.eng.AtFunc(t, r.pumpFn, nil) }

func (r *RDMARead) pumpEvent(any) { r.pump() }

// FaultSetLinkDown suspends read requests while down; resuming restarts the
// pump (the pace clock does not advance during the outage, so the stream
// picks back up at the wire rate immediately).
func (r *RDMARead) FaultSetLinkDown(down bool) {
	r.linkDown = down
	if !down {
		r.pump()
	}
}

// FaultSetPauseStorm is a no-op: the read responder has no PFC state (the
// remote reader simply sees stalled completions).
func (r *RDMARead) FaultSetPauseStorm(bool) {}

func (r *RDMARead) pump() {
	if r.linkDown {
		return
	}
	for {
		now := r.eng.Now()
		if r.paceAt > now {
			r.eng.AtFunc(r.paceAt, r.pumpFn, nil)
			return
		}
		addr := r.cfg.BufBase + mem.Addr((r.nextLine*mem.LineSize)%r.cfg.BufBytes)
		if !r.io.TryRead(addr, 0, r.dmaDone) {
			if !r.waiting {
				r.waiting = true
				r.io.NotifyRead(r.wake)
			}
			return
		}
		r.nextLine++
		r.paceAt = now + r.cfg.LinePeriod
	}
}

// BytesPerSec reports delivered read bandwidth.
func (r *RDMARead) BytesPerSec() float64 { return r.Delivered.BytesPerSecond() }

// ResetStats starts a new measurement window.
func (r *RDMARead) ResetStats() { r.Delivered.Reset() }
