package netsim

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/cpu"
	"repro/internal/iio"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DCTCPConfig models the paper's TCP case study: iperf-like long flows into
// a receiver over a lossy fabric with ECN, Linux DCTCP, 9 KB jumbo frames,
// and a kernel receive path that copies every payload byte from socket
// buffers to application buffers on a CPU core.
type DCTCPConfig struct {
	Flows        int
	MSS          int      // bytes per packet (9000-byte jumbo frames)
	RTT          sim.Time // base network round-trip
	InitCwnd     int      // bytes
	MaxCwnd      int      // bytes (sender buffer bound)
	ECNThresh    int      // NIC rx queue ECN mark threshold (bytes)
	QueueCap     int      // NIC rx queue capacity (bytes); beyond this, drops
	SocketBuf    int      // per-flow socket buffer (flow-control window), bytes
	G            float64  // DCTCP gain
	PerPacketCPU sim.Time // receiver per-packet protocol processing
	BufBase      mem.Addr

	// Audit, when non-nil, receives the receiver's queue and per-flow
	// window invariants.
	Audit *audit.Auditor
}

// DefaultDCTCPConfig matches the paper's setup: 4 flows, 9K MTU, 100 Gbps
// link, DCTCP with standard gain.
func DefaultDCTCPConfig(base mem.Addr) DCTCPConfig {
	return DCTCPConfig{
		Flows:        4,
		MSS:          9000,
		RTT:          12 * sim.Microsecond,
		InitCwnd:     64 << 10,
		MaxCwnd:      512 << 10,
		ECNThresh:    48 << 10,
		QueueCap:     128 << 10,
		SocketBuf:    256 << 10,
		G:            0.0625,
		PerPacketCPU: 700 * sim.Nanosecond,
		BufBase:      base,
	}
}

type dctcpFlow struct {
	rx *DCTCPReceiver
	id int

	// Sender state.
	cwnd     float64
	alpha    float64
	inflight int // bytes sent, not yet acked
	acked    int // bytes acked this window round
	marked   int // bytes marked this round

	// Receiver state.
	sockBytes int // bytes in socket buffer awaiting copy
	copier    *copyGen

	retransAt sim.Time
}

// DCTCPReceiver is the receiver-side host model: NIC rx queue with ECN and
// drops, DMA into socket buffers, and per-flow copy work on receiver cores.
type DCTCPReceiver struct {
	eng *sim.Engine
	cfg DCTCPConfig
	io  *iio.IIO

	flows    []*dctcpFlow
	queue    int // NIC rx queue bytes
	dmaQueue []*dctcpPacket
	pktFree  []*dctcpPacket // packets whose ack or loss recovery ran
	waiting  bool
	wake     func() // bound credit-wait callback, created once
	nextLine int64

	// AppBytes counts bytes delivered to application buffers (the iperf
	// goodput the paper reports).
	AppBytes *telemetry.Counter
	// NICBytes counts bytes DMA'd (the P2M load).
	NICBytes *telemetry.Counter
	// Drops and Sent count packets for the loss rate.
	Drops, Sent *telemetry.Counter
	// QueueOcc tracks the NIC rx queue.
	QueueOcc *telemetry.Integrator
}

type dctcpPacket struct {
	flow  *dctcpFlow
	bytes int
	ecn   bool
	lines int // remaining lines to DMA
	// delivered is the DMA completion of the packet's last line, bound
	// once when the packet is made.
	delivered func()
}

// newPacket takes a packet from the receiver's free list.
func (r *DCTCPReceiver) newPacket(f *dctcpFlow, bytes int) *dctcpPacket {
	var p *dctcpPacket
	if n := len(r.pktFree); n > 0 {
		p = r.pktFree[n-1]
		r.pktFree = r.pktFree[:n-1]
	} else {
		p = &dctcpPacket{}
		p.delivered = func() { r.packetDelivered(p) }
	}
	p.flow, p.bytes, p.ecn, p.lines = f, bytes, false, 0
	return p
}

// Package-level event dispatchers: the flow and packet pointers already
// carry everything the delayed steps need, so scheduling through them
// allocates nothing. A packet's last event is its ack or, when the NIC
// dropped it, its loss recovery; either returns it to the free list.

// retransEvent re-attempts a window-limited flow after its retry timer.
func retransEvent(arg any) {
	f := arg.(*dctcpFlow)
	f.rx.trySend(f)
}

// nicArriveEvent lands a packet at the NIC after the one-way delay.
func nicArriveEvent(arg any) {
	p := arg.(*dctcpPacket)
	p.flow.rx.nicArrive(p)
}

// dropRecoverEvent applies the loss response an RTO-ish delay after a drop.
func dropRecoverEvent(arg any) {
	p := arg.(*dctcpPacket)
	f := p.flow
	f.inflight -= p.bytes
	f.rx.pktFree = append(f.rx.pktFree, p)
	// Loss response: multiplicative decrease.
	f.cwnd = max(f.cwnd/2, float64(f.rx.cfg.MSS))
	f.rx.trySend(f)
}

// ackEvent delivers a (delayed) acknowledgment back at the sender.
func ackEvent(arg any) {
	p := arg.(*dctcpPacket)
	f, bytes, ecn := p.flow, p.bytes, p.ecn
	f.rx.pktFree = append(f.rx.pktFree, p)
	f.rx.ack(f, bytes, ecn)
}

// NewDCTCPReceiver builds the receiver; attach each flow's copier to a host
// core via Copiers, then Start.
func NewDCTCPReceiver(eng *sim.Engine, cfg DCTCPConfig, io *iio.IIO) *DCTCPReceiver {
	r := &DCTCPReceiver{
		eng:      eng,
		cfg:      cfg,
		io:       io,
		AppBytes: telemetry.NewCounter(eng),
		NICBytes: telemetry.NewCounter(eng),
		Drops:    telemetry.NewCounter(eng),
		Sent:     telemetry.NewCounter(eng),
		QueueOcc: telemetry.NewIntegrator(eng),
	}
	r.wake = func() { r.waiting = false; r.dmaPump() }
	for i := 0; i < cfg.Flows; i++ {
		f := &dctcpFlow{rx: r, id: i, cwnd: float64(cfg.InitCwnd)}
		f.copier = &copyGen{flow: f, appBase: cfg.BufBase + mem.Addr(i)<<28}
		r.flows = append(r.flows, f)
	}
	if aud := cfg.Audit; aud.Enabled() {
		aud.Gauge("dctcp", "queue_occ", r.QueueOcc, func() int { return r.queue })
		aud.Bounds("dctcp", "queue", 0, int64(cfg.QueueCap), func() int64 { return int64(r.queue) })
		aud.Check("dctcp", "flows", func() (bool, string) {
			for _, f := range r.flows {
				if f.inflight < 0 {
					return false, fmt.Sprintf("flow %d: inflight %d < 0", f.id, f.inflight)
				}
				if f.sockBytes < 0 {
					return false, fmt.Sprintf("flow %d: sockBytes %d < 0", f.id, f.sockBytes)
				}
				if f.cwnd < float64(cfg.MSS) || f.cwnd > float64(cfg.MaxCwnd) {
					return false, fmt.Sprintf("flow %d: cwnd %.0f outside [%d, %d]", f.id, f.cwnd, cfg.MSS, cfg.MaxCwnd)
				}
				if f.alpha < 0 || f.alpha > 1 {
					return false, fmt.Sprintf("flow %d: alpha %.4f outside [0, 1]", f.id, f.alpha)
				}
			}
			return true, ""
		})
	}
	return r
}

// AttachCopier binds flow i's copy generator to a receiver core; the caller
// creates the core with this generator (one dedicated core per flow, as the
// paper dedicates 4 iperf cores).
func (r *DCTCPReceiver) AttachCopier(i int, c *cpu.Core) { r.flows[i].copier.Bind(c) }

// Copier returns flow i's access generator.
func (r *DCTCPReceiver) Copier(i int) cpu.Generator { return r.flows[i].copier }

// Start begins all senders at time t.
func (r *DCTCPReceiver) Start(t sim.Time) {
	r.eng.AtFunc(t, func(any) {
		for _, f := range r.flows {
			r.trySend(f)
		}
	}, nil)
}

// rwnd is the flow's advertised window.
func (r *DCTCPReceiver) rwnd(f *dctcpFlow) int {
	w := r.cfg.SocketBuf - f.sockBytes
	if w < 0 {
		return 0
	}
	return w
}

// trySend transmits packets while cwnd and rwnd allow.
func (r *DCTCPReceiver) trySend(f *dctcpFlow) {
	for {
		win := int(f.cwnd)
		if rw := r.rwnd(f); rw < win {
			win = rw
		}
		if f.inflight+r.cfg.MSS > win {
			// Window-limited: a timer retries if no ack arrives (covers the
			// rwnd-limited case where acks carry the window update).
			if f.retransAt <= r.eng.Now() {
				f.retransAt = r.eng.Now() + r.cfg.RTT
				r.eng.AtFunc(f.retransAt, retransEvent, f)
			}
			return
		}
		f.inflight += r.cfg.MSS
		r.Sent.Inc()
		// One-way delay, then NIC arrival.
		r.eng.AfterFunc(r.cfg.RTT/2, nicArriveEvent, r.newPacket(f, r.cfg.MSS))
	}
}

// nicArrive applies ECN marking and drop at the NIC rx queue.
func (r *DCTCPReceiver) nicArrive(p *dctcpPacket) {
	if r.queue+p.bytes > r.cfg.QueueCap {
		// Drop: the ack never comes; recover after an RTO-ish delay.
		r.Drops.Inc()
		r.eng.AfterFunc(2*r.cfg.RTT, dropRecoverEvent, p)
		return
	}
	p.ecn = r.queue >= r.cfg.ECNThresh
	r.queue += p.bytes
	r.QueueOcc.Add(p.bytes)
	r.dmaQueue = append(r.dmaQueue, p)
	r.dmaPump()
}

// dmaPump DMAs queued packets into socket buffers, line by line.
func (r *DCTCPReceiver) dmaPump() {
	for len(r.dmaQueue) > 0 {
		p := r.dmaQueue[0]
		if p.lines == 0 {
			p.lines = (p.bytes + mem.LineSize - 1) / mem.LineSize
		}
		for p.lines > 0 {
			addr := r.cfg.BufBase + mem.Addr((r.nextLine*mem.LineSize)%(1<<28))
			// Only the packet's last line lands it in the socket buffer.
			var done func()
			if p.lines == 1 {
				done = p.delivered
			}
			if !r.io.TryWrite(addr, 0, done) {
				if !r.waiting {
					r.waiting = true
					r.io.NotifyWrite(r.wake)
				}
				return
			}
			r.nextLine++
			p.lines--
		}
		r.dmaQueue = append(r.dmaQueue[:0], r.dmaQueue[1:]...)
	}
}

// packetDelivered lands a packet in the socket buffer and returns the ACK.
func (r *DCTCPReceiver) packetDelivered(p *dctcpPacket) {
	r.NICBytes.IncN(p.bytes)
	r.queue -= p.bytes
	r.QueueOcc.Add(-p.bytes)
	f := p.flow
	f.sockBytes += p.bytes
	f.copier.wake()
	r.eng.AfterFunc(r.cfg.RTT/2, ackEvent, p)
}

// ack processes a (delayed) acknowledgment at the sender: DCTCP window math.
func (r *DCTCPReceiver) ack(f *dctcpFlow, bytes int, ecn bool) {
	f.inflight -= bytes
	f.acked += bytes
	if ecn {
		f.marked += bytes
	}
	// Per-RTT round accounting: once a cwnd's worth is acked, update alpha
	// and apply the DCTCP decrease (or additive increase).
	if f.acked >= int(f.cwnd) {
		frac := 0.0
		if f.acked > 0 {
			frac = float64(f.marked) / float64(f.acked)
		}
		f.alpha = (1-r.cfg.G)*f.alpha + r.cfg.G*frac
		if f.marked > 0 {
			f.cwnd = max(f.cwnd*(1-f.alpha/2), float64(r.cfg.MSS))
		} else {
			f.cwnd = min(f.cwnd+float64(r.cfg.MSS), float64(r.cfg.MaxCwnd))
		}
		f.acked, f.marked = 0, 0
	}
	r.trySend(f)
}

// GoodputBytesPerSec reports application-level receive throughput.
func (r *DCTCPReceiver) GoodputBytesPerSec() float64 { return r.AppBytes.RatePerSecond() }

// P2MBytesPerSec reports the NIC's DMA (P2M) bandwidth.
func (r *DCTCPReceiver) P2MBytesPerSec() float64 { return r.NICBytes.RatePerSecond() }

// LossRate reports dropped/sent packets.
func (r *DCTCPReceiver) LossRate() float64 {
	if r.Sent.Count() == 0 {
		return 0
	}
	return float64(r.Drops.Count()) / float64(r.Sent.Count())
}

// ResetStats starts a new measurement window.
func (r *DCTCPReceiver) ResetStats() {
	r.AppBytes.Reset()
	r.NICBytes.Reset()
	r.Drops.Reset()
	r.Sent.Reset()
	r.QueueOcc.Reset()
}

// copyGen is the per-flow kernel receive path on a core: for every payload
// cacheline it reads the socket buffer line (C2M read through the LFB) and
// writes the application buffer line (C2M write), plus per-packet protocol
// processing. Its speed therefore degrades exactly when the C2M-Read domain
// latency inflates — the paper's blue-regime coupling for TCP (§2.3).
type copyGen struct {
	flow    *dctcpFlow
	appBase mem.Addr
	core    *cpu.Core

	pos        int64
	pendingWB  []mem.Addr
	packetLeft int // lines left in the current packet's copy
	readyAt    sim.Time
}

// Bind attaches the copier to its receiver core so that data arrivals can
// re-poll an idle core (cores otherwise only re-poll on completions).
func (g *copyGen) Bind(c *cpu.Core) { g.core = c }

// wake is called when new socket-buffer data lands.
func (g *copyGen) wake() {
	if g.core != nil {
		g.core.Nudge()
	}
}

// Poll implements cpu.Generator.
func (g *copyGen) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	if len(g.pendingWB) > 0 {
		a := g.pendingWB[0]
		g.pendingWB = append(g.pendingWB[:0], g.pendingWB[1:]...)
		return cpu.Access{Addr: a, Kind: mem.Write}, now, true
	}
	if g.readyAt > now {
		return cpu.Access{}, g.readyAt, true
	}
	if g.packetLeft == 0 {
		f := g.flow
		mss := f.rx.cfg.MSS
		if f.sockBytes < mss {
			return cpu.Access{}, 0, false // wait for data (wake() re-polls)
		}
		f.sockBytes -= mss
		// Window opens: the ack path piggybacks the new rwnd; nudge the
		// sender.
		f.rx.trySend(f)
		g.packetLeft = (mss + mem.LineSize - 1) / mem.LineSize
		// Per-packet protocol processing before the copy starts.
		g.readyAt = now + f.rx.cfg.PerPacketCPU
		return cpu.Access{}, g.readyAt, true
	}
	g.packetLeft--
	addr := g.flow.rx.cfg.BufBase + mem.Addr((g.pos*mem.LineSize)%(1<<28))
	g.pos++
	return cpu.Access{Addr: addr, Kind: mem.Read}, now, true
}

// OnComplete implements cpu.Generator: each copied line is written to the
// app buffer, and finishing a packet's copy counts as goodput.
func (g *copyGen) OnComplete(acc cpu.Access, now sim.Time) {
	if acc.Kind != mem.Read {
		return
	}
	g.pendingWB = append(g.pendingWB, g.appBase+mem.Addr((g.pos*mem.LineSize)%(1<<27)))
	g.flow.rx.AppBytes.IncN(mem.LineSize)
}
