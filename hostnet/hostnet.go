// Package hostnet is the public API of the host-network simulator — a
// reproduction of "Understanding the Host Network" (SIGCOMM 2024).
//
// The library decomposes a server host into the components of the paper's
// §3 — cores with Line Fill Buffers, the CHA/LLC, a DDR4 memory controller
// with per-channel read/write pending queues, DRAM banks, the IIO and PCIe
// link, and peripheral devices — and simulates data movement at cacheline
// granularity under domain-by-domain credit-based flow control (§4).
//
// # Quick start
//
//	h := hostnet.New(hostnet.CascadeLake())
//	h.AddCore(hostnet.SeqRead(h.Region(1<<30), 1<<30)) // a C2M-Read app
//	h.AddStorage(hostnet.BulkStorage(hostnet.DMAWrite, h.Region(1<<30)))
//	h.Run(20*hostnet.Microsecond, 100*hostnet.Microsecond)
//	fmt.Println(h.C2MBW(), h.P2MBW()) // colocated throughputs
//
// Every registered experiment, the analytic tier included, runs through
// one generic path: RunJobJSON executes a JobSpec — the same spec hostnetd
// serves and `hostnetsim -format json` prints — and returns its canonical
// result bytes. A few figures also keep typed Run* entry points and
// Render* helpers for the examples.
package hostnet

import (
	"io"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/hostcc"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Re-exported fundamental types.
type (
	// Time is simulated time in picoseconds.
	Time = sim.Time
	// Addr is a physical byte address.
	Addr = mem.Addr
	// Config describes a host (use CascadeLake/IceLake for the paper's
	// testbeds).
	Config = host.Config
	// Host is an assembled host network.
	Host = host.Host
	// Generator supplies a core's access stream.
	Generator = cpu.Generator
	// StorageConfig describes a FIO-style device workload.
	StorageConfig = periph.Config
	// Domain is the paper's credit-based flow-control domain abstraction.
	Domain = core.Domain
	// DomainKind names one of the four domains.
	DomainKind = core.DomainKind
	// Measurement is a domain's observed behaviour over a window.
	Measurement = core.Measurement
	// Regime classifies a colocation outcome (blue/red).
	Regime = core.Regime
	// Options configure an experiment run.
	Options = exp.Options
	// Quadrant identifies a §2.2 colocation scenario.
	Quadrant = exp.Quadrant
	// HostCCConfig tunes the in-host congestion controller (the paper's §7
	// future-work direction, in the spirit of hostCC/SIGCOMM'23).
	HostCCConfig = hostcc.Config
	// DualHost is a two-socket host joined by a UPI-style interconnect (the
	// paper's §7 "multiple sockets" extension).
	DualHost = host.DualHost
	// UPIConfig models the socket interconnect.
	UPIConfig = numa.Config
	// AuditConfig tunes the invariant auditor (Config.Audit). The zero
	// value disables auditing at zero overhead; set Enabled to have every
	// credit domain check conservation between events and cross-check its
	// latency probes against direct per-request timestamps at end of window.
	AuditConfig = audit.Config
	// Fabric is a rack: N hosts and their NICs connected through a ToR
	// switch, all on one shared event engine (so fabric runs keep the
	// single-host determinism guarantees).
	Fabric = fabric.Fabric
	// ParallelFabric is the conservative-parallel rack: every host on a
	// private engine, advanced in ToR-lookahead rounds.
	ParallelFabric = fabric.Parallel
	// FabricConfig describes a rack (hosts, per-host config, NIC, ToR).
	FabricConfig = fabric.Config
)

// Microsecond is one microsecond of simulated time.
const Microsecond = sim.Microsecond

// Domains.
const (
	C2MRead  = core.C2MRead
	C2MWrite = core.C2MWrite
	P2MRead  = core.P2MRead
	P2MWrite = core.P2MWrite
)

// Regimes.
const (
	NoContention = core.NoContention
	Blue         = core.Blue
	Red          = core.Red
)

// Quadrants.
const (
	Q1 = exp.Q1
	Q2 = exp.Q2
	Q3 = exp.Q3
	Q4 = exp.Q4
)

// DMA directions for storage workloads.
const (
	// DMAWrite models storage reads: the device writes host memory.
	DMAWrite = periph.DMAWrite
	// DMARead models storage writes: the device reads host memory.
	DMARead = periph.DMARead
)

// CascadeLake returns the Table 1 Cascade Lake preset.
func CascadeLake() Config { return host.CascadeLake() }

// IceLake returns the Table 1 Ice Lake preset.
func IceLake() Config { return host.IceLake() }

// New assembles a host.
func New(cfg Config) *Host { return host.New(cfg) }

// NewDual assembles a two-socket host with the given per-socket config.
func NewDual(cfg Config, upi UPIConfig) *DualHost { return host.NewDual(cfg, upi) }

// DefaultUPIConfig returns a ~40 ns, ~20 GB/s-per-direction socket link.
func DefaultUPIConfig() UPIConfig { return numa.DefaultConfig() }

// SeqRead returns the paper's C2M-Read workload (sequential AVX512-style
// loads over a private buffer).
func SeqRead(base Addr, bytes int64) Generator { return workload.NewSeqRead(base, bytes) }

// SeqReadWrite returns the paper's C2M-ReadWrite workload (sequential
// stores: RFO reads plus eviction writebacks, 50/50 memory traffic).
func SeqReadWrite(base Addr, bytes int64) Generator { return workload.NewSeqReadWrite(base, bytes) }

// BulkStorage returns the paper's bulk FIO workload (8 MB sequential
// requests, deep queue).
func BulkStorage(dir periph.Direction, base Addr) StorageConfig {
	return periph.BulkConfig(dir, base)
}

// CascadeLakeDomains returns the §4.2 characterization of the four domains.
func CascadeLakeDomains() [4]Domain { return core.CascadeLakeDomains() }

// Classify maps (C2M, P2M) degradation factors to a contention regime.
func Classify(c2mDegr, p2mDegr float64) Regime { return core.Classify(c2mDegr, p2mDegr) }

// Explain produces the causal narrative for a domain measurement pair.
func Explain(d Domain, loaded, unloaded Measurement) string {
	return core.Explain(d, loaded, unloaded)
}

// DefaultOptions returns the experiment defaults (Cascade Lake, DDIO off,
// 20 us warmup, 100 us window). Multi-point sweeps run on a worker pool
// sized by Options.Parallelism (default 0 = one worker per CPU); every
// sweep point builds its own Host and engine, so results are bit-identical
// at any parallelism — see WithParallelism.
func DefaultOptions() Options { return exp.Defaults() }

// WithParallelism returns opt with the sweep worker pool bounded to n
// workers: 1 forces serial execution, 0 restores the one-per-CPU default.
// Parallel and serial runs of the same experiment produce byte-identical
// output (the determinism tests in internal/exp pin this).
func WithParallelism(opt Options, n int) Options {
	opt.Parallelism = n
	return opt
}

// WithAudit returns opt with invariant auditing switched on or off for every
// host the experiment builds. Audited runs fail fast: any conservation
// violation panics with the domain, counter, and simulated timestamp.
// Auditing never schedules events or perturbs state, so results are
// identical either way; it only costs wall-clock time.
func WithAudit(opt Options, on bool) Options {
	opt.Audit = on
	return opt
}

// Typed entry points of the figures the examples draw. Each returns
// structured results; the matching Render* helper prints the same rows the
// paper reports. Every other experiment runs through RunJobJSON.
var (
	RunFig3  = exp.RunFig3
	RunFig6  = exp.RunFig6
	RunFig11 = exp.RunFig11
	RunFig18 = exp.RunFig18
	RunFig19 = exp.RunFig19

	RunRDMAQuadrant = exp.RunRDMAQuadrant
	RunHostCCStudy  = exp.RunHostCCStudy
)

// DefaultHostCCConfig returns the Cascade-Lake-tuned controller parameters.
func DefaultHostCCConfig() HostCCConfig { return hostcc.DefaultConfig() }

// Rendering helpers.
func RenderQuadrants(w io.Writer, res map[Quadrant][]exp.QuadrantPoint) {
	exp.RenderQuadrants(w, res)
}
func RenderDomainEvidence(w io.Writer, ev exp.DomainEvidence) { exp.RenderDomainEvidence(w, ev) }
func RenderFormula(w io.Writer, res map[Quadrant][]exp.FormulaPoint) {
	exp.RenderFormula(w, res)
}
func RenderRDMA(w io.Writer, res map[Quadrant][]exp.RDMAQuadrantPoint) { exp.RenderRDMA(w, res) }
func RenderDCTCP(w io.Writer, read, rw []exp.DCTCPPoint)               { exp.RenderDCTCP(w, read, rw) }

// NewFabric assembles a rack of hosts behind a ToR switch on one engine.
func NewFabric(cfg FabricConfig) *Fabric { return fabric.New(cfg) }

// NewParallelFabric assembles a partitioned rack advanced in conservative
// lookahead rounds. The configuration must be fault-free.
func NewParallelFabric(cfg FabricConfig) *ParallelFabric { return fabric.NewParallel(cfg) }

// DefaultFabricConfig returns a Cascade Lake rack of `hosts` hosts on a
// 100 Gbps ToR.
func DefaultFabricConfig(hosts int) FabricConfig { return fabric.DefaultConfig(hosts) }
