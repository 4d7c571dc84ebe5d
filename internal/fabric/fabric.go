// Package fabric instantiates N host networks on one shared event engine
// and connects their NICs through a ToR switch model — the rack-scale view
// the paper's cross-host phenomena (PFC pause propagation, incast whose
// bottleneck is the receiver's IIO/DRAM credits rather than the network)
// require. One engine means one clock and one (time, seq) order, so fabric
// runs inherit the single-host determinism guarantees: bit-identical at any
// sweep parallelism, byte-identical with the auditor on or off.
//
// The fabric shares one auditor across all hosts (the engine holds a single
// event-cadence hook) with per-host domain prefixes ("h2/iio"), and one
// fault injector attached to the designated fault host — so a
// pfc_pause_storm on one port propagates, observably, into pause time on a
// sender three hops of queueing away.
package fabric

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/sim"
)

// NodeID addresses a host Al-Fares style — 10.pod.edge.host with 1-based
// octets — so a single-ToR fabric (pod 0, edge 0) extends to a fat-tree
// without re-addressing. Host i of a rack is 10.1.1.(i+1).
type NodeID struct {
	Pod, Edge, Host int
}

// String renders the fat-tree address.
func (n NodeID) String() string {
	return fmt.Sprintf("10.%d.%d.%d", n.Pod+1, n.Edge+1, n.Host+1)
}

// Config describes a fabric.
type Config struct {
	// Hosts is the number of hosts on the ToR (>= 2).
	Hosts int
	// Host configures every host identically (presets, audit knobs inside
	// it are overridden by the fabric-level Audit below).
	Host host.Config
	// NIC configures every host's fabric attachment.
	NIC NICConfig
	// Switch configures the ToR; Ports defaults to Hosts.
	Switch SwitchConfig
	// Audit configures the single fabric-wide auditor.
	Audit audit.Config
	// Faults is the schedule applied to host FaultHost (its DRAM/IIO) and
	// that host's NIC/link. Empty means every host is healthy.
	Faults fault.Schedule
	// FaultHost selects which host the schedule targets.
	FaultHost int
}

// DefaultConfig returns a Cascade Lake rack of `hosts` hosts on a 100 Gbps
// ToR.
func DefaultConfig(hosts int) Config {
	return Config{
		Hosts:  hosts,
		Host:   host.CascadeLake(),
		NIC:    DefaultNICConfig(),
		Switch: DefaultSwitchConfig(hosts),
	}
}

// rack is the topology both execution modes assemble: N hosts, each with
// its NIC, on one ToR. Fabric runs it on one engine; Parallel splits it
// across one engine per host plus one for the switch.
type rack struct {
	Cfg    Config
	Switch *Switch
	Hosts  []*host.Host
	NICs   []*NIC

	// inTransit counts lines riding cross-partition messages, posted but not
	// yet delivered (a conservation term). Always zero on a shared engine,
	// where the wires' lines are counted by the NICs.
	inTransit int64
}

// newRack validates cfg and fills its defaults. The switch and hosts are
// added by the constructor, which knows their engines.
func newRack(cfg Config) rack {
	if cfg.Hosts < 2 {
		panic("fabric: need at least 2 hosts")
	}
	if cfg.Switch.Ports == 0 {
		cfg.Switch.Ports = cfg.Hosts
	}
	if cfg.Switch.Ports < cfg.Hosts {
		panic("fabric: switch has fewer ports than hosts")
	}
	return rack{Cfg: cfg}
}

// addHost builds host i on eng with its NIC attached to the switch port of
// the same index.
func (r *rack) addHost(eng *sim.Engine, aud *audit.Auditor, inj *fault.Injector, i int) *NIC {
	hcfg := r.Cfg.Host
	hcfg.Name = fmt.Sprintf("%s/h%d", hcfg.Name, i)
	h := host.NewOn(eng, aud, inj, fmt.Sprintf("h%d", i), hcfg)
	base := h.Region(r.Cfg.NIC.BufBytes)
	nic := NewNIC(eng, r.Cfg.NIC, h.IIO, r.Switch, i, NodeID{Host: i}, base, aud)
	r.Switch.attach(i, nic)
	r.Hosts = append(r.Hosts, h)
	r.NICs = append(r.NICs, nic)
	return nic
}

// AddFlow offers a stream from host src to host dst at `rate` (fraction of
// NIC line rate in (0, 1]).
func (r *rack) AddFlow(src, dst int, rate float64) {
	if src == dst {
		panic("fabric: flow source equals destination")
	}
	r.NICs[src].AddFlow(dst, rate)
}

// AddIncast points hosts 1..senders at host recv, each at full line rate —
// the M-to-1 pattern of the incast experiment.
func (r *rack) AddIncast(recv, senders int) {
	added := 0
	for i := 0; added < senders; i++ {
		if i == recv {
			continue
		}
		r.AddFlow(i, recv, 1)
		added++
	}
}

// InFlight reports lines currently between a sender's TX and delivery: on a
// wire, in a switch or NIC queue, in the forwarding pipeline, in flight
// inside a host, or riding a cross-partition message.
func (r *rack) InFlight() int64 {
	q := r.Switch.queued() + r.inTransit
	for _, n := range r.NICs {
		q += n.queued()
	}
	return q
}

// Conservation is the rack-wide end-to-end invariant: every line ever
// emitted is, at any event boundary (a round boundary on a partitioned
// rack), in flight, delivered, or (never, under working PFC) dropped.
func (r *rack) Conservation() (bool, string) {
	var sent int64
	acct := r.InFlight() + r.Switch.dropTotal
	for _, n := range r.NICs {
		sent += n.sentTotal
		acct += n.deliveredTotal + n.dropTotal
	}
	if sent != acct {
		return false, fmt.Sprintf("emitted %d lines but account for %d", sent, acct)
	}
	return true, ""
}

// ResetStats starts a fresh measurement window on every probe in the rack.
func (r *rack) ResetStats() {
	for _, h := range r.Hosts {
		h.ResetStats()
	}
	for _, n := range r.NICs {
		n.ResetStats()
	}
	r.Switch.ResetStats()
}

// Fabric is an assembled rack: N hosts, their NICs, and the ToR, all on one
// engine.
type Fabric struct {
	rack
	Eng     *sim.Engine
	Auditor *audit.Auditor
	Faults  *fault.Injector
}

// New assembles a fabric. The existing single-host layers are reused
// unchanged: each host is built by host.NewOn on the shared engine, the
// shared auditor namespaces each host's invariant domains, and the fault
// injector attaches to the fault host's components plus its NIC (as both
// fault.NIC and fault.Link) before Start schedules the windows.
func New(cfg Config) *Fabric {
	f := &Fabric{rack: newRack(cfg)}
	if fh := f.Cfg.FaultHost; fh < 0 || fh >= f.Cfg.Hosts {
		f.Cfg.FaultHost = 0
	}
	f.Eng = sim.New()
	f.Auditor = audit.New(f.Eng, f.Cfg.Audit)
	f.Faults = fault.NewInjector(f.Eng, f.Cfg.Faults)
	f.Switch = NewSwitch(f.Eng, f.Cfg.Switch, f.Auditor)
	for i := 0; i < f.Cfg.Hosts; i++ {
		if i != f.Cfg.FaultHost {
			f.addHost(f.Eng, f.Auditor, nil, i)
			continue
		}
		nic := f.addHost(f.Eng, f.Auditor, f.Faults, i)
		f.Faults.AttachNIC(nic)
		f.Faults.AttachLink(nic)
	}
	if f.Auditor.Enabled() {
		f.Auditor.Check("fabric", "line_conservation", f.Conservation)
	}
	f.Faults.Start()
	return f
}

// Run warms the rack up for `warmup`, resets all probes, then runs the
// measurement window and evaluates end-of-window invariants.
func (f *Fabric) Run(warmup, window sim.Time) {
	f.Eng.RunUntil(f.Eng.Now() + warmup)
	f.ResetStats()
	f.Eng.RunUntil(f.Eng.Now() + window)
	f.Auditor.CheckEnd()
}
