// Package host assembles the full host network — cores, CHA, LLC/DDIO,
// memory controller, DRAM, IIO, and peripheral devices — and provides the
// two testbed presets of the paper's Table 1.
package host

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/cha"
	"repro/internal/cpu"
	"repro/internal/cxl"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/iio"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/sim"
)

// Config describes a host.
type Config struct {
	Name     string
	MaxCores int
	Core     cpu.Config
	Mapper   mem.MapperConfig
	MC       dram.Config
	CHA      cha.Config
	IIO      iio.Config
	DDIO     cache.DDIOConfig
	// TheoreticalMemBW (bytes/s) is used by experiments to report
	// utilization like the paper's figures.
	TheoreticalMemBW float64

	// Audit configures the invariant auditor. Zero value = disabled: every
	// domain still compiles its registration call, but audit.New returns nil
	// and the nil auditor makes each registration a no-op.
	Audit audit.Config

	// Faults schedules deterministic transient degradation windows through
	// the event engine. Empty = healthy host: fault.NewInjector returns nil
	// and the nil injector adds no events and no hot-path work.
	Faults fault.Schedule
}

// CascadeLake returns the Table 1 Cascade Lake preset: Xeon Gold 6234,
// 8 cores @ 3.3 GHz, 24 MB LLC, 2x DDR4-2933 (46.9 GB/s), 4x P5800X NVMe
// over PCIe (16 GB/s theoretical, ~14 GB/s achievable).
func CascadeLake() Config {
	mc := dram.DefaultConfig()
	mc.Timing = dram.DDR4_2933()
	return Config{
		Name:             "CascadeLake",
		MaxCores:         8,
		Core:             cpu.DefaultConfig(),
		Mapper:           mem.MapperConfig{Channels: 2, Banks: 32, RowBytes: 8192, XORRowIntoBank: true},
		MC:               mc,
		CHA:              cha.DefaultConfig(),
		IIO:              iio.DefaultConfig(),
		DDIO:             cache.DefaultDDIOConfig(false),
		TheoreticalMemBW: 46.9e9,
	}
}

// IceLake returns the Table 1 Ice Lake preset: Xeon Platinum 8362, 32 cores
// @ 2.8 GHz, 48 MB LLC, 4x DDR4-3200 (102.4 GB/s), 8x PM173X NVMe over PCIe
// (32 GB/s theoretical, ~28 GB/s achievable). DDIO is permanently enabled on
// this platform.
func IceLake() Config {
	mc := dram.DefaultConfig()
	mc.Timing = dram.DDR4_3200()
	ioCfg := iio.DefaultConfig()
	ioCfg.LinePeriodUp = 2290 * sim.Picosecond
	ioCfg.LinePeriodDown = 2290 * sim.Picosecond
	// The larger platform carries proportionally more IIO buffering.
	ioCfg.WriteCredits = 184
	ioCfg.ReadCredits = 328
	chaCfg := cha.DefaultConfig()
	chaCfg.WriteEntries = 288
	chaCfg.ReadEntries = 512
	return Config{
		Name:             "IceLake",
		MaxCores:         32,
		Core:             cpu.DefaultConfig(),
		Mapper:           mem.MapperConfig{Channels: 4, Banks: 32, RowBytes: 8192, XORRowIntoBank: true},
		MC:               mc,
		CHA:              chaCfg,
		IIO:              ioCfg,
		DDIO:             cache.DefaultDDIOConfig(true),
		TheoreticalMemBW: 102.4e9,
	}
}

// Host is an assembled host network.
type Host struct {
	Eng *sim.Engine
	Cfg Config

	// Auditor is non-nil iff Cfg.Audit.Enabled; components registered their
	// invariants with it at construction.
	Auditor *audit.Auditor

	// Faults is non-nil iff Cfg.Faults is non-empty; window events were
	// scheduled at construction and NICs built later (by the experiment
	// layer) attach themselves before the engine runs.
	Faults *fault.Injector

	MC      *dram.Controller
	CHA     *cha.CHA
	IIO     *iio.IIO
	DDIO    *cache.DDIO
	CXL     *cxl.Expander // non-nil when built with NewWithCXL
	Cores   []*cpu.Core
	Devices []*periph.Storage

	ingress    mem.Submitter
	nextRegion mem.Addr
	nextCXL    mem.Addr
}

// New assembles a host from a config.
func New(cfg Config) *Host {
	eng := sim.New()
	aud := audit.New(eng, cfg.Audit)
	inj := fault.NewInjector(eng, cfg.Faults)
	h := NewOn(eng, aud, inj, "", cfg)
	inj.Start()
	return h
}

// NewOn assembles a host on a shared engine — the multi-host path used by
// internal/fabric to put N host networks on one clock. The auditor and
// injector are shared across the hosts of a fabric (either may be nil:
// a nil auditor disables checking, a nil injector means this host is not a
// fault target); prefix, when non-empty, namespaces the host's audit
// domains ("h3/dram", "h3/iio", ...) so violations attribute to the right
// host. Core audit domains keep their per-core labels. The caller owns
// Injector.Start, which must run once after every target is attached.
func NewOn(eng *sim.Engine, aud *audit.Auditor, inj *fault.Injector, prefix string, cfg Config) *Host {
	// Thread the auditor into every component config (and keep it in Cfg so
	// AddCore-built cores inherit it).
	cfg.MC.Audit = aud
	cfg.CHA.Audit = aud
	cfg.IIO.Audit = aud
	cfg.Core.Audit = aud
	if prefix != "" {
		cfg.MC.AuditDomain = prefix + "/dram"
		cfg.CHA.AuditDomain = prefix + "/cha"
		cfg.IIO.AuditDomain = prefix + "/iio"
	}
	mapper := mem.MustMapper(cfg.Mapper)
	mc := dram.New(eng, cfg.MC, mapper, nil)
	ddio := cache.NewDDIO(cfg.DDIO)
	ch := cha.New(eng, cfg.CHA, mc, ddio)
	io := iio.New(eng, cfg.IIO, ch)
	inj.AttachDRAM(mc)
	inj.AttachIIO(io)
	return &Host{Eng: eng, Cfg: cfg, Auditor: aud, Faults: inj, MC: mc, CHA: ch, IIO: io, DDIO: ddio, ingress: ch}
}

// cxlHomeBit splits the address space: regions at or above 1<<cxlHomeBit are
// homed on the CXL expander.
const cxlHomeBit = 39

// cxlMux routes core traffic between host DRAM and the CXL expander by
// address. It adds no cost of its own; the expander models its link.
type cxlMux struct {
	cha mem.Submitter
	exp *cxl.Expander
}

// Submit implements mem.Submitter.
func (m cxlMux) Submit(r *mem.Request) {
	if r.Addr>>cxlHomeBit&1 == 1 {
		m.exp.Submit(r)
		return
	}
	m.cha.Submit(r)
}

// NewWithCXL assembles a host with a CXL.mem expander attached — the §7
// "new interconnects" extension. Core traffic to CXLRegion addresses is
// serviced by the expander's own memory controller behind the CXL link.
func NewWithCXL(cfg Config, cxlCfg cxl.Config) *Host {
	h := New(cfg)
	cxlCfg.Audit = h.Auditor
	h.CXL = cxl.New(h.Eng, cxlCfg)
	h.ingress = cxlMux{cha: h.CHA, exp: h.CXL}
	h.Faults.AttachLink(h.CXL)
	h.Faults.AttachDRAM(h.CXL.MC())
	return h
}

// CXLRegion allocates a fresh 1 GiB-aligned region homed on the expander.
func (h *Host) CXLRegion(bytes int64) mem.Addr {
	if h.CXL == nil {
		panic("host: CXLRegion on a host built without CXL")
	}
	base := h.nextCXL
	span := (mem.Addr(bytes) + (1 << 30) - 1) &^ ((1 << 30) - 1)
	if span == 0 {
		span = 1 << 30
	}
	h.nextCXL += span
	return base | 1<<cxlHomeBit
}

// Region hands out a fresh 1 GiB-aligned address region of the given size,
// so every core and device works in a distinct address space (the paper's
// workloads each own a private buffer).
func (h *Host) Region(bytes int64) mem.Addr {
	base := h.nextRegion
	span := (mem.Addr(bytes) + (1 << 30) - 1) &^ ((1 << 30) - 1)
	if span == 0 {
		span = 1 << 30
	}
	h.nextRegion += span
	return base
}

// AddCore creates a core driven by gen and starts it at time 0.
func (h *Host) AddCore(gen cpu.Generator) *cpu.Core {
	if len(h.Cores) >= h.Cfg.MaxCores {
		panic(fmt.Sprintf("host: %s has only %d cores", h.Cfg.Name, h.Cfg.MaxCores))
	}
	c := cpu.New(h.Eng, h.Cfg.Core, len(h.Cores), h.ingress, gen)
	h.Cores = append(h.Cores, c)
	c.Start(0)
	return c
}

// AddStorage creates a storage device workload and starts it at time 0.
func (h *Host) AddStorage(cfg periph.Config) *periph.Storage {
	cfg.Audit = h.Auditor
	d := periph.New(h.Eng, cfg, h.IIO, len(h.Devices))
	h.Devices = append(h.Devices, d)
	d.Start(0)
	return d
}

// ResetStats starts a fresh measurement window on every probe in the host.
func (h *Host) ResetStats() {
	h.MC.Stats().Reset()
	h.CHA.Stats().Reset()
	h.IIO.Stats().Reset()
	h.DDIO.ResetStats()
	if h.CXL != nil {
		h.CXL.Stats().Reset()
	}
	for _, c := range h.Cores {
		c.Stats().Reset()
	}
	for _, d := range h.Devices {
		d.Stats().Reset()
	}
}

// Run warms the host up for `warmup`, resets all probes, then runs the
// measurement window. Afterwards every probe covers exactly [warmup,
// warmup+window].
func (h *Host) Run(warmup, window sim.Time) {
	h.Eng.RunUntil(h.Eng.Now() + warmup)
	h.ResetStats()
	h.Eng.RunUntil(h.Eng.Now() + window)
	h.Auditor.CheckEnd()
}

// C2MReadBW sums completed read bandwidth over all cores (bytes/s).
func (h *Host) C2MReadBW() float64 {
	var bw float64
	for _, c := range h.Cores {
		bw += c.Stats().ReadBytesPerSec()
	}
	return bw
}

// C2MWriteBW sums completed write bandwidth over all cores (bytes/s).
func (h *Host) C2MWriteBW() float64 {
	var bw float64
	for _, c := range h.Cores {
		bw += c.Stats().WriteBytesPerSec()
	}
	return bw
}

// C2MBW sums all core bandwidth (bytes/s).
func (h *Host) C2MBW() float64 { return h.C2MReadBW() + h.C2MWriteBW() }

// P2MBW sums completed device bandwidth (bytes/s).
func (h *Host) P2MBW() float64 {
	var bw float64
	for _, d := range h.Devices {
		bw += d.Stats().BytesPerSec()
	}
	return bw
}

// MemBW reports memory bandwidth actually consumed at the DRAM, split by
// source, as the paper's utilization figures plot.
func (h *Host) MemBW() (c2m, p2m float64) {
	st := h.MC.Stats()
	c2m = st.C2MRead.Lines.BytesPerSecond() + st.C2MWrite.Lines.BytesPerSecond()
	p2m = st.P2MRead.Lines.BytesPerSecond() + st.P2MWrite.Lines.BytesPerSecond()
	return c2m, p2m
}

// AvgLFBLatNanos averages the LFB latency over all cores.
func (h *Host) AvgLFBLatNanos() float64 {
	if len(h.Cores) == 0 {
		return 0
	}
	var sum float64
	for _, c := range h.Cores {
		sum += c.Stats().LFBLat.AvgNanos()
	}
	return sum / float64(len(h.Cores))
}
