// Package fault is the deterministic fault-injection layer: transient
// degradation windows — NIC link flaps, sustained PFC pause storms, DRAM
// channel throttling and bank outages, IIO credit starvation, and CXL/UPI
// lane degradation — scheduled through the event engine so faulted runs stay
// bit-identical at any sweep parallelism and byte-identical with the
// invariant auditor on or off.
//
// A fault is a (start, duration, magnitude) window over one credit domain.
// Windows live in the exp.Spec JSON (the `faults` knob), so a fault scenario
// is content-addressable exactly like a healthy one: hostnetd caches and
// deduplicates faulted jobs by the hash of the normalized spec, which
// includes the normalized schedule.
//
// Injection is event-scheduled and component-cooperative: the injector
// schedules an apply event at each window's start and a clear event at its
// end, and the components expose small Fault* hooks that mutate their state
// the same way ordinary traffic would (credits held through the pool, bank
// ready times pushed, link periods stretched). Every hook preserves the
// component's registered audit invariants mid-window — faults degrade the
// modeled hardware, they never corrupt its accounting.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Kind names a fault mechanism.
type Kind string

// The fault kinds, one per credit domain the paper's §3-§4 model covers.
const (
	// LinkFlap takes the NIC's wire link down: no new lines arrive (RDMA
	// write) or are requested (RDMA read) during the window; buffered lines
	// keep draining. Magnitude is unused.
	LinkFlap Kind = "nic_link_flap"
	// PauseStorm forces PFC XOFF for the whole window, as a congested
	// downstream switch would: the sender pauses after the usual propagation
	// delay and the NIC queue drains. Magnitude is unused.
	PauseStorm Kind = "pfc_pause_storm"
	// DRAMThrottle stretches one channel's timing (thermal throttling /
	// DVFS): every DRAM timing constant on the channel is multiplied by
	// Magnitude (> 1) for the window. Channel selects the channel
	// (wrapped modulo the controller's channel count).
	DRAMThrottle Kind = "dram_throttle"
	// BankOffline takes one DRAM bank out of service until the window ends:
	// its row buffer is lost and accesses queue until it returns. Channel
	// and Bank select the victim (wrapped modulo the controller geometry).
	// Magnitude is unused; the outage length is the duration itself.
	BankOffline Kind = "dram_bank_offline"
	// IIOStarve holds a fraction (Magnitude in (0, 1]) of the IIO's write
	// and read credits for the window, as a leaky or misbehaving peer
	// device would, shrinking the effective P2M credit pools.
	IIOStarve Kind = "iio_credit_starve"
	// LaneDegrade multiplies serial-link per-line serialization time by
	// Magnitude (> 1) for the window — CXL or UPI lanes dropping to a
	// degraded width/speed.
	LaneDegrade Kind = "lane_degrade"
)

// kinds lists every valid Kind (validation and tests range over it).
func Kinds() []Kind {
	return []Kind{LinkFlap, PauseStorm, DRAMThrottle, BankOffline, IIOStarve, LaneDegrade}
}

// Window is one transient fault: a (start, duration, magnitude) interval
// over one fault kind. Start is absolute simulated time from engine start
// (time 0 — i.e. it counts from the beginning of warmup).
type Window struct {
	Kind       Kind  `json:"kind"`
	StartNs    int64 `json:"start_ns"`
	DurationNs int64 `json:"duration_ns"`
	// Magnitude is kind-specific: a timing multiplier (>= 1) for
	// DRAMThrottle and LaneDegrade, a held-credit fraction in (0, 1] for
	// IIOStarve, unused otherwise. 0 means the kind's default.
	Magnitude float64 `json:"magnitude,omitempty"`
	// Channel selects the DRAM channel for DRAMThrottle/BankOffline
	// (wrapped modulo the controller's channel count).
	Channel int `json:"channel,omitempty"`
	// Bank selects the DRAM bank for BankOffline (wrapped modulo banks).
	Bank int `json:"bank,omitempty"`
}

func (w Window) start() sim.Time { return sim.Time(w.StartNs) * sim.Nanosecond }
func (w Window) end() sim.Time   { return sim.Time(w.StartNs+w.DurationNs) * sim.Nanosecond }

// Schedule is a set of fault windows. The zero value (empty) means a healthy
// run and costs nothing: NewInjector returns a nil injector, every component
// hook stays untouched, and the event hot path gains no work.
type Schedule []Window

// defaultMagnitude fills the kind's default strength.
func defaultMagnitude(k Kind) float64 {
	switch k {
	case DRAMThrottle, LaneDegrade:
		return 4
	case IIOStarve:
		return 0.5
	}
	return 0
}

// usesMagnitude reports whether the kind reads Magnitude.
func usesMagnitude(k Kind) bool {
	switch k {
	case DRAMThrottle, LaneDegrade, IIOStarve:
		return true
	}
	return false
}

// usesChannel reports whether the kind reads Channel.
func usesChannel(k Kind) bool { return k == DRAMThrottle || k == BankOffline }

// Normalized returns the canonical form of the schedule: defaults filled in,
// fields the kind does not read cleared, windows sorted by (start, kind,
// channel, bank, duration). Two schedules describing the same fault scenario
// normalize to identical values, which is what keeps hostnetd's
// content-addressing sound for faulted specs. An empty schedule normalizes
// to nil.
func (s Schedule) Normalized() Schedule {
	if len(s) == 0 {
		return nil
	}
	n := make(Schedule, len(s))
	for i, w := range s {
		m := Window{Kind: w.Kind, StartNs: w.StartNs, DurationNs: w.DurationNs}
		if usesMagnitude(w.Kind) {
			m.Magnitude = w.Magnitude
			if m.Magnitude == 0 {
				m.Magnitude = defaultMagnitude(w.Kind)
			}
		}
		if usesChannel(w.Kind) {
			m.Channel = w.Channel
		}
		if w.Kind == BankOffline {
			m.Bank = w.Bank
		}
		n[i] = m
	}
	sort.SliceStable(n, func(i, j int) bool {
		a, b := n[i], n[j]
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.DurationNs < b.DurationNs
	})
	return n
}

// MaxWindows bounds a schedule's length; real scenarios use a handful.
const MaxWindows = 64

// MaxMagnitude bounds the timing multiplier of DRAMThrottle and LaneDegrade.
// At 1e6 one DRAM column access takes over 13 ms, longer than hostnetd's
// default 10 ms window cap, and 1e6 times any timing constant in the
// simulator stays far below the int64 limit of sim.Time.
const MaxMagnitude = 1e6

// Validate checks the schedule (normalized or not): known kinds, sane
// intervals and magnitudes, and no overlapping windows of the same kind on
// the same target — overlap would make apply/clear order ambiguous, so it
// is rejected rather than resolved.
func (s Schedule) Validate() error {
	if len(s) > MaxWindows {
		return fmt.Errorf("fault: %d windows exceed the limit of %d", len(s), MaxWindows)
	}
	known := make(map[Kind]bool, 6)
	for _, k := range Kinds() {
		known[k] = true
	}
	for i, w := range s {
		if !known[w.Kind] {
			return fmt.Errorf("fault[%d]: unknown kind %q (valid: %v)", i, w.Kind, Kinds())
		}
		if w.StartNs < 0 {
			return fmt.Errorf("fault[%d]: start_ns %d < 0", i, w.StartNs)
		}
		if w.DurationNs <= 0 {
			return fmt.Errorf("fault[%d]: duration_ns %d <= 0", i, w.DurationNs)
		}
		if w.DurationNs > sim.MaxNanoseconds-w.StartNs {
			return fmt.Errorf("fault[%d]: start_ns %d + duration_ns %d exceeds %d, the longest simulated time",
				i, w.StartNs, w.DurationNs, sim.MaxNanoseconds)
		}
		if w.Channel < 0 || w.Bank < 0 {
			return fmt.Errorf("fault[%d]: negative channel/bank (%d, %d)", i, w.Channel, w.Bank)
		}
		if usesMagnitude(w.Kind) && w.Magnitude != 0 {
			switch w.Kind {
			case IIOStarve:
				if w.Magnitude < 0 || w.Magnitude > 1 {
					return fmt.Errorf("fault[%d]: %s magnitude %v outside (0,1]", i, w.Kind, w.Magnitude)
				}
			default:
				if w.Magnitude < 1 {
					return fmt.Errorf("fault[%d]: %s magnitude %v < 1", i, w.Kind, w.Magnitude)
				}
				if w.Magnitude > MaxMagnitude {
					return fmt.Errorf("fault[%d]: %s magnitude %v exceeds the limit of %g", i, w.Kind, w.Magnitude, MaxMagnitude)
				}
			}
		}
	}
	// Same-target overlap check on the normalized (sorted) form.
	n := s.Normalized()
	for i := 1; i < len(n); i++ {
		for k := 0; k < i; k++ {
			a, b := n[k], n[i]
			if a.Kind != b.Kind || a.Channel != b.Channel || a.Bank != b.Bank {
				continue
			}
			if b.StartNs < a.StartNs+a.DurationNs {
				return fmt.Errorf("fault: overlapping %s windows at %dns and %dns on the same target",
					a.Kind, a.StartNs, b.StartNs)
			}
		}
	}
	return nil
}

// The component hooks the injector drives. Each is implemented by the
// matching simulator package; the interfaces live here so the components
// stay import-free of this package (fault sits above them, like host).

// DRAM is the memory-controller surface (implemented by dram.Controller).
type DRAM interface {
	Channels() int
	// FaultSetChannelSlowdown multiplies the channel's timing constants by
	// factor (>= 1); factor <= 1 restores the configured timing.
	FaultSetChannelSlowdown(channel int, factor float64)
	// FaultBankOffline takes (channel, bank) out of service until the given
	// simulated time: the open row is lost and accesses queue behind it.
	FaultBankOffline(channel, bank int, until sim.Time)
}

// IIO is the IO-controller surface (implemented by iio.IIO).
type IIO interface {
	// FaultHoldCredits pins up to nWrite write credits and nRead read
	// credits as held (acquired through the pools like real traffic, so
	// occupancy gauges stay consistent); (0, 0) releases every held credit
	// and wakes waiters.
	FaultHoldCredits(nWrite, nRead int)
	WriteCreditCapacity() int
	ReadCreditCapacity() int
}

// NIC is the network-device surface (implemented by netsim.RDMAWrite and
// netsim.RDMARead).
type NIC interface {
	// FaultSetLinkDown suspends wire arrivals/requests while down.
	FaultSetLinkDown(down bool)
	// FaultSetPauseStorm forces PFC XOFF while on (no-op for transports
	// without PFC, e.g. the read responder).
	FaultSetPauseStorm(on bool)
}

// Link is a serial-interconnect surface (implemented by cxl.Expander and
// numa.Router).
type Link interface {
	// FaultSetLineMult multiplies per-line serialization time by mult
	// (>= 1); mult <= 1 restores the configured rate.
	FaultSetLineMult(mult float64)
}

// Injector schedules a Schedule's windows through one engine and dispatches
// them to the attached components. A nil *Injector (what NewInjector returns
// for an empty schedule) is valid and inert: every method is a no-op, so
// healthy hosts carry no fault machinery at all.
type Injector struct {
	eng      *sim.Engine
	schedule Schedule

	drams []DRAM
	iios  []IIO
	nics  []NIC
	links []Link

	active  int // windows currently open
	applyFn sim.EventFunc
	clearFn sim.EventFunc
	started bool
}

// NewInjector builds an injector for the schedule, or nil when the schedule
// is empty. The schedule is normalized; callers should have validated it.
func NewInjector(eng *sim.Engine, s Schedule) *Injector {
	n := s.Normalized()
	if len(n) == 0 {
		return nil
	}
	in := &Injector{eng: eng, schedule: n}
	in.applyFn = in.applyEvent
	in.clearFn = in.clearEvent
	return in
}

// AttachDRAM registers a memory controller as a fault target.
func (in *Injector) AttachDRAM(d DRAM) {
	if in == nil {
		return
	}
	in.drams = append(in.drams, d)
}

// AttachIIO registers an IO controller as a fault target.
func (in *Injector) AttachIIO(i IIO) {
	if in == nil {
		return
	}
	in.iios = append(in.iios, i)
}

// AttachNIC registers a NIC as a fault target. NICs are created by the
// experiment layer after host assembly, so attachment may happen after
// Start; windows dispatch to whatever is attached when they fire.
func (in *Injector) AttachNIC(n NIC) {
	if in == nil {
		return
	}
	in.nics = append(in.nics, n)
}

// AttachLink registers a serial interconnect as a fault target.
func (in *Injector) AttachLink(l Link) {
	if in == nil {
		return
	}
	in.links = append(in.links, l)
}

// Active reports how many fault windows are currently open.
func (in *Injector) Active() int {
	if in == nil {
		return 0
	}
	return in.active
}

// Schedule returns the normalized schedule the injector runs.
func (in *Injector) Schedule() Schedule {
	if in == nil {
		return nil
	}
	return in.schedule
}

// Start schedules every window's apply and clear events. Call once, at
// engine time <= the earliest window start (host assembly calls it at 0).
func (in *Injector) Start() {
	if in == nil || in.started {
		return
	}
	in.started = true
	now := in.eng.Now()
	for i := range in.schedule {
		w := &in.schedule[i]
		at := w.start()
		if at < now {
			at = now
		}
		in.eng.AtFunc(at, in.applyFn, w)
		end := w.end()
		if end < at {
			end = at
		}
		in.eng.AtFunc(end, in.clearFn, w)
	}
}

func (in *Injector) applyEvent(arg any) { in.dispatch(arg.(*Window), true) }
func (in *Injector) clearEvent(arg any) { in.dispatch(arg.(*Window), false) }

// dispatch applies or clears one window on every attached target.
func (in *Injector) dispatch(w *Window, apply bool) {
	if apply {
		in.active++
	} else {
		in.active--
	}
	switch w.Kind {
	case LinkFlap:
		for _, n := range in.nics {
			n.FaultSetLinkDown(apply)
		}
	case PauseStorm:
		for _, n := range in.nics {
			n.FaultSetPauseStorm(apply)
		}
	case DRAMThrottle:
		factor := 1.0
		if apply {
			factor = w.Magnitude
		}
		for _, d := range in.drams {
			d.FaultSetChannelSlowdown(w.Channel, factor)
		}
	case BankOffline:
		if apply {
			for _, d := range in.drams {
				d.FaultBankOffline(w.Channel, w.Bank, w.end())
			}
		}
		// The clear event only closes the window accounting: readiness
		// times already encode the outage end.
	case IIOStarve:
		for _, io := range in.iios {
			var nw, nr int
			if apply {
				nw = int(w.Magnitude*float64(io.WriteCreditCapacity()) + 0.5)
				nr = int(w.Magnitude*float64(io.ReadCreditCapacity()) + 0.5)
			}
			io.FaultHoldCredits(nw, nr)
		}
	case LaneDegrade:
		mult := 1.0
		if apply {
			mult = w.Magnitude
		}
		for _, l := range in.links {
			l.FaultSetLineMult(mult)
		}
	}
}
