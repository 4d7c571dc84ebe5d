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

// Fabric is an assembled rack: N hosts, their NICs, and the ToR, all on one
// engine.
type Fabric struct {
	Eng     *sim.Engine
	Cfg     Config
	Auditor *audit.Auditor
	Faults  *fault.Injector
	Switch  *Switch
	Hosts   []*host.Host
	NICs    []*NIC
}

// New assembles a fabric. The existing single-host layers are reused
// unchanged: each host is built by host.NewOn on the shared engine, the
// shared auditor namespaces each host's invariant domains, and the fault
// injector attaches to the fault host's components plus its NIC (as both
// fault.NIC and fault.Link) before Start schedules the windows.
func New(cfg Config) *Fabric {
	if cfg.Hosts < 2 {
		panic("fabric: need at least 2 hosts")
	}
	if cfg.Switch.Ports == 0 {
		cfg.Switch.Ports = cfg.Hosts
	}
	if cfg.Switch.Ports < cfg.Hosts {
		panic("fabric: switch has fewer ports than hosts")
	}
	fh := cfg.FaultHost
	if fh < 0 || fh >= cfg.Hosts {
		fh = 0
	}
	cfg.FaultHost = fh

	eng := sim.New()
	aud := audit.New(eng, cfg.Audit)
	inj := fault.NewInjector(eng, cfg.Faults)
	f := &Fabric{Eng: eng, Cfg: cfg, Auditor: aud, Faults: inj}
	f.Switch = NewSwitch(eng, cfg.Switch, aud)
	for i := 0; i < cfg.Hosts; i++ {
		hinj := (*fault.Injector)(nil)
		if i == fh {
			hinj = inj
		}
		hcfg := cfg.Host
		hcfg.Name = fmt.Sprintf("%s/h%d", hcfg.Name, i)
		h := host.NewOn(eng, aud, hinj, fmt.Sprintf("h%d", i), hcfg)
		base := h.Region(cfg.NIC.BufBytes)
		nic := NewNIC(eng, cfg.NIC, h.IIO, f.Switch, i, NodeID{Host: i}, base, aud)
		f.Switch.attach(i, nic)
		if i == fh {
			inj.AttachNIC(nic)
			inj.AttachLink(nic)
		}
		f.Hosts = append(f.Hosts, h)
		f.NICs = append(f.NICs, nic)
	}
	if aud.Enabled() {
		aud.Check("fabric", "line_conservation", f.conservation)
	}
	inj.Start()
	return f
}

// AddFlow offers a stream from host src to host dst at `rate` (fraction of
// NIC line rate in (0, 1]).
func (f *Fabric) AddFlow(src, dst int, rate float64) {
	if src == dst {
		panic("fabric: flow source equals destination")
	}
	f.NICs[src].AddFlow(dst, rate)
}

// AddIncast points hosts 1..senders at host recv, each at full line rate —
// the M-to-1 pattern of the incast experiment.
func (f *Fabric) AddIncast(recv, senders int) {
	added := 0
	for i := 0; added < senders; i++ {
		if i == recv {
			continue
		}
		f.AddFlow(i, recv, 1)
		added++
	}
}

// conservation is the fabric-wide end-to-end invariant: every line ever
// emitted is, at any event boundary, in exactly one place — on a wire, in a
// switch or NIC queue, in the forwarding pipeline, in flight inside a host,
// delivered, or (never, under working PFC) dropped.
func (f *Fabric) conservation() (bool, string) {
	var sent, acct int64
	for _, n := range f.NICs {
		sent += n.sentTotal
		acct += n.queued() + n.deliveredTotal + n.dropTotal
	}
	acct += f.Switch.queued() + f.Switch.dropTotal
	if sent != acct {
		return false, fmt.Sprintf("emitted %d lines but account for %d", sent, acct)
	}
	return true, ""
}

// Conservation exposes the invariant for tests (ok, detail).
func (f *Fabric) Conservation() (bool, string) { return f.conservation() }

// InFlight reports lines currently between a sender's TX and delivery.
func (f *Fabric) InFlight() int64 {
	var q int64
	for _, n := range f.NICs {
		q += n.queued()
	}
	return q + f.Switch.queued()
}

// ResetStats starts a fresh measurement window on every probe in the rack.
func (f *Fabric) ResetStats() {
	for _, h := range f.Hosts {
		h.ResetStats()
	}
	for _, n := range f.NICs {
		n.ResetStats()
	}
	f.Switch.ResetStats()
}

// Run warms the rack up for `warmup`, resets all probes, then runs the
// measurement window and evaluates end-of-window invariants.
func (f *Fabric) Run(warmup, window sim.Time) {
	f.Eng.RunUntil(f.Eng.Now() + warmup)
	f.ResetStats()
	f.Eng.RunUntil(f.Eng.Now() + window)
	f.Auditor.CheckEnd()
}
