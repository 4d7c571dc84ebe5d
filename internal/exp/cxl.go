package exp

import (
	"repro/internal/cxl"
	"repro/internal/host"
	"repro/internal/periph"
	"repro/internal/workload"
)

// CXLStudy is the §7 CXL.mem trade: a core reading expander-homed memory
// pays link latency, but its traffic no longer contends with P2M writes to
// host DRAM.
type CXLStudy struct {
	// One sequential-read core on CXL-homed memory, alone.
	IsoReadLatNs float64 // LFB latency (ns)
	IsoC2MBW     float64 // bytes/s
	// The same core colocated with bulk P2M writes to host DRAM.
	CoReadLatNs float64
	CoP2MBW     float64
}

// RunCXLStudy measures the trade on a Cascade Lake host with the default
// expander.
func RunCXLStudy(opt Options) CXLStudy {
	run := func(colocated bool) *host.Host {
		cfg := host.CascadeLake()
		cfg.Audit = opt.auditConfig()
		h := host.NewWithCXL(cfg, cxl.DefaultConfig())
		h.AddCore(workload.NewSeqRead(h.CXLRegion(1<<30), 1<<30))
		if colocated {
			h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
		}
		h.Run(opt.Warmup, opt.Window)
		return h
	}
	iso, co := run(false), run(true)
	return CXLStudy{
		IsoReadLatNs: iso.Cores[0].Stats().LFBLat.AvgNanos(),
		IsoC2MBW:     iso.C2MBW(),
		CoReadLatNs:  co.Cores[0].Stats().LFBLat.AvgNanos(),
		CoP2MBW:      co.P2MBW(),
	}
}
