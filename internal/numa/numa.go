// Package numa extends the host model to multiple sockets — the first item
// on the paper's §7 list ("a natural next step is to extend our study to
// hosts with multiple sockets").
//
// Each socket owns a full local host network (CHA, MC, DRAM). A UPI-style
// processor interconnect joins them: a request whose physical address is
// homed on another socket crosses the link (paying per-direction
// serialization for cacheline-sized messages plus a propagation latency),
// is serviced by the *home* socket's CHA/MC, and its response crosses back.
// Remote traffic therefore contends twice: on the UPI link and inside the
// remote socket's memory interconnect — which is exactly what makes
// cross-socket colocation interesting.
package numa

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config models the socket interconnect.
type Config struct {
	// ReqLatency is the one-way propagation for a request/ack message.
	ReqLatency sim.Time
	// DataLatency is the one-way propagation for a data message.
	DataLatency sim.Time
	// LinePeriod is the per-cacheline serialization time in one direction
	// (~3.2 ns at 20 GB/s per direction).
	LinePeriod sim.Time

	// Audit, when non-nil, receives the link-state invariants.
	Audit *audit.Auditor
}

// DefaultConfig models a two-socket UPI link: ~40 ns one-way, ~20 GB/s per
// direction (remote-memory reads land at the familiar ~150 ns).
func DefaultConfig() Config {
	return Config{
		ReqLatency:  40 * sim.Nanosecond,
		DataLatency: 40 * sim.Nanosecond,
		LinePeriod:  3200 * sim.Picosecond,
	}
}

// Stats exposes the interconnect probes.
type Stats struct {
	// RemoteReads/RemoteWrites count cross-socket requests.
	RemoteReads, RemoteWrites *telemetry.Counter
	// LinkBusy measures utilization per direction (0: socket0->1).
	LinkBusy [2]*telemetry.FracTimer
}

// Reset starts a new measurement window.
func (s *Stats) Reset() {
	s.RemoteReads.Reset()
	s.RemoteWrites.Reset()
	s.LinkBusy[0].Reset()
	s.LinkBusy[1].Reset()
}

// Router joins two sockets' CHAs behind per-socket ingress ports.
type Router struct {
	eng    *sim.Engine
	cfg    Config
	chas   [2]mem.Submitter
	homeOf func(mem.Addr) int

	freeAt [2]sim.Time // per-direction link serialization
	// linePeriod is the live per-line serialization time: cfg.LinePeriod
	// normally, stretched while a lane-degradation fault is active.
	linePeriod sim.Time
	stats      *Stats

	// Per-direction bound handlers, created once so link-idle checks and
	// home-socket submissions schedule without allocating closures;
	// remoteFree pools the cross-socket completion args.
	idleFn     [2]sim.EventFunc
	submitFn   [2]sim.EventFunc
	remoteFree []*remote
}

// remote carries one cross-socket request's completion back over the link
// to the requester's socket.
type remote struct {
	r    *Router
	back int                // link direction of the response
	done func(*mem.Request) // the requester's own completion handler
	req  *mem.Request
	// homeFn is homeDone bound once, when the arg is made: the request's
	// Done while it is served on its home socket.
	homeFn func(*mem.Request)
}

// homeDone runs where the home socket completes the request. The response
// crosses back before the requester's handler runs, which is after the home
// CHA's release point, so the request is held until then.
func (a *remote) homeDone(rq *mem.Request) {
	r := a.r
	var backSer sim.Time
	if rq.Kind == mem.Read {
		backSer = r.serialize(a.back)
	}
	delay := r.cfg.ReqLatency
	if rq.Kind == mem.Read {
		delay = r.cfg.DataLatency
	}
	rq.Hold()
	r.eng.AfterFunc(backSer+delay, remoteDoneEvent, a)
}

// remoteDoneEvent lands a cross-socket response at the requester's socket.
func remoteDoneEvent(arg any) {
	a := arg.(*remote)
	r, rq, done := a.r, a.req, a.done
	a.req, a.done = nil, nil
	r.remoteFree = append(r.remoteFree, a)
	rq.TDone = r.eng.Now()
	if done != nil {
		done(rq)
	}
	rq.Release()
}

func (r *Router) newRemote(back int, req *mem.Request) *remote {
	var a *remote
	if n := len(r.remoteFree); n > 0 {
		a = r.remoteFree[n-1]
		r.remoteFree = r.remoteFree[:n-1]
	} else {
		a = &remote{r: r}
		a.homeFn = a.homeDone
	}
	a.back, a.done, a.req = back, req.Done, req
	return a
}

// New builds a router over two home CHAs; homeOf maps an address to its
// home socket (0 or 1).
func New(eng *sim.Engine, cfg Config, cha0, cha1 mem.Submitter, homeOf func(mem.Addr) int) *Router {
	r := &Router{
		eng:        eng,
		cfg:        cfg,
		linePeriod: cfg.LinePeriod,
		chas:       [2]mem.Submitter{cha0, cha1},
		homeOf:     homeOf,
		stats: &Stats{
			RemoteReads:  telemetry.NewCounter(eng),
			RemoteWrites: telemetry.NewCounter(eng),
		},
	}
	r.stats.LinkBusy[0] = telemetry.NewFracTimer(eng)
	r.stats.LinkBusy[1] = telemetry.NewFracTimer(eng)
	for d := 0; d < 2; d++ {
		d := d
		// A reservation that is still the latest at its own end time means
		// the link went idle (a later reservation would have moved freeAt).
		r.idleFn[d] = func(any) {
			if r.freeAt[d] == r.eng.Now() {
				r.stats.LinkBusy[d].Set(false)
			}
		}
		r.submitFn[d] = func(arg any) { r.chas[d].Submit(arg.(*mem.Request)) }
	}
	if aud := cfg.Audit; aud.Enabled() {
		for d := 0; d < 2; d++ {
			d := d
			aud.Check("numa", fmt.Sprintf("link_busy_dir%d", d), func() (bool, string) {
				busy, free, now := r.stats.LinkBusy[d].On(), r.freeAt[d], eng.Now()
				// Busy implies an unexpired reservation (the idle event at
				// freeAt may still be pending when freeAt == now); idle
				// implies no reservation extends past now.
				if busy && free < now {
					return false, fmt.Sprintf("flagged busy but reservation ended at %v (now %v)", free, now)
				}
				if !busy && free > now {
					return false, fmt.Sprintf("flagged idle with reservation until %v (now %v)", free, now)
				}
				return true, ""
			})
		}
	}
	return r
}

// Stats returns the interconnect probes.
func (r *Router) Stats() *Stats { return r.stats }

// Port returns the ingress for agents attached to the given socket.
func (r *Router) Port(socket int) mem.Submitter { return &port{r: r, socket: socket} }

type port struct {
	r      *Router
	socket int
}

// Submit routes a request from the port's socket to its home socket.
func (p *port) Submit(req *mem.Request) {
	r := p.r
	home := r.homeOf(req.Addr)
	if home == p.socket {
		r.chas[home].Submit(req)
		return
	}
	// Cross-socket: serialize on the outbound direction, propagate, then
	// enter the home CHA. Writes carry data outbound; reads carry data on
	// the way back.
	dir := p.socket // direction index: 0 = socket0->1, 1 = socket1->0
	if dir > 1 {
		dir = 1
	}
	var outSer sim.Time
	if req.Kind == mem.Write {
		r.stats.RemoteWrites.Inc()
		outSer = r.serialize(dir)
	} else {
		r.stats.RemoteReads.Inc()
	}
	// Wrap completion: the response crosses back to the requester's socket.
	req.Done = r.newRemote(1-dir, req).homeFn
	r.eng.AfterFunc(outSer+r.cfg.ReqLatency, r.submitFn[home], req)
}

// serialize reserves the next line slot on one link direction and returns
// the queueing delay before transmission completes.
func (r *Router) serialize(dir int) sim.Time {
	now := r.eng.Now()
	start := r.freeAt[dir]
	if start < now {
		start = now
	}
	r.freeAt[dir] = start + r.linePeriod
	r.stats.LinkBusy[dir].Set(true)
	r.eng.AtFunc(r.freeAt[dir], r.idleFn[dir], nil)
	return r.freeAt[dir] - now
}

// FaultSetLineMult multiplies per-line UPI serialization time by mult
// (lanes dropping to a degraded width/speed); mult <= 1 restores the
// configured rate. Reservations already made keep their slots, so the
// link-busy invariant is unaffected.
func (r *Router) FaultSetLineMult(mult float64) {
	if mult <= 1 {
		r.linePeriod = r.cfg.LinePeriod
		return
	}
	r.linePeriod = sim.Time(float64(r.cfg.LinePeriod)*mult + 0.5)
}
