package exp

import (
	"repro/internal/cpu"
	"repro/internal/host"
)

// PrefetchStudy reproduces the paper's prefetching claim (§2.2): when memory
// bandwidth is not saturated, prefetching improves sequential C2M throughput
// in both the isolated and colocated cases, but the degradation *ratio*
// stays roughly the same.
type PrefetchStudy struct {
	Cores int
	// Isolated and colocated C2M bandwidth, prefetch off/on (bytes/s).
	IsoOff, IsoOn float64
	CoOff, CoOn   float64
}

// DegradationOff reports iso/colocated with prefetching off.
func (s PrefetchStudy) DegradationOff() float64 { return degradation(s.IsoOff, s.CoOff) }

// DegradationOn reports iso/colocated with prefetching on.
func (s PrefetchStudy) DegradationOn() float64 { return degradation(s.IsoOn, s.CoOn) }

// RunPrefetchStudy measures quadrant-1 style colocation with the hardware
// prefetcher off and on.
func RunPrefetchStudy(cores int, opt Options) PrefetchStudy {
	s := PrefetchStudy{Cores: cores}
	run := func(pf *cpu.Prefetcher, colocated bool) float64 {
		cfg := opt.Preset()
		cfg.DDIO.Enabled = opt.DDIO
		cfg.Core.Prefetch = pf
		cfg.Audit = opt.auditConfig()
		h := host.New(cfg)
		addC2MCores(h, Q1, cores)
		if colocated {
			addP2MDevice(h, Q1)
		}
		h.Run(opt.Warmup, opt.Window)
		return h.C2MBW()
	}
	s.IsoOff = run(nil, false)
	s.CoOff = run(nil, true)
	s.IsoOn = run(cpu.DefaultPrefetcher(), false)
	s.CoOn = run(cpu.DefaultPrefetcher(), true)
	return s
}
