package exp

import (
	"repro/internal/periph"
	"repro/internal/workload"
)

// RatioPoint is one write-fraction sample of the regime-transition sweep.
type RatioPoint struct {
	WriteFrac float64
	Cores     int

	C2MIso, C2MCo float64
	P2MIso, P2MCo float64
	WPQFullFrac   float64
	WBacklog      float64
}

// C2MDegradation and P2MDegradation mirror QuadrantPoint.
func (p RatioPoint) C2MDegradation() float64 { return degradation(p.C2MIso, p.C2MCo) }
func (p RatioPoint) P2MDegradation() float64 { return degradation(p.P2MIso, p.P2MCo) }

// RunRatioSweep sweeps the C2M store fraction at a fixed core count against
// bulk P2M writes: the continuous version of the quadrant-1 -> quadrant-3
// transition. As the write fraction grows, total write load crosses the
// drain capacity, the WPQ pins, and P2M degradation switches on — the red
// regime emerging as a function of a single workload knob.
func RunRatioSweep(cores int, fracs []float64, opt Options) []RatioPoint {
	var p2mIso float64
	pts := sweep(opt, fracs, func() { p2mIso = quadrantRun(opt, Q1, 0, true).P2MBW }, func(i int, f float64) RatioPoint {
		p := RatioPoint{WriteFrac: f, Cores: cores}

		iso := opt.newHost()
		for c := 0; c < cores; c++ {
			iso.AddCore(workload.NewSeqMix(iso.Region(1<<30), 1<<30, f, uint64(40+i*8+c)))
		}
		iso.Run(opt.Warmup, opt.Window)
		p.C2MIso = iso.C2MBW()

		co := opt.newHost()
		for c := 0; c < cores; c++ {
			co.AddCore(workload.NewSeqMix(co.Region(1<<30), 1<<30, f, uint64(40+i*8+c)))
		}
		co.AddStorage(periph.BulkConfig(periph.DMAWrite, co.Region(1<<30)))
		co.Run(opt.Warmup, opt.Window)
		m := snapshot(co)
		p.C2MCo, p.P2MCo = m.C2MBW, m.P2MBW
		p.WPQFullFrac = m.WPQFullFrac
		p.WBacklog = m.WBacklog
		return p
	})
	for i := range pts {
		pts[i].P2MIso = p2mIso
	}
	return pts
}

// ratioTasks mirrors RunRatioSweep over n's write fractions.
func ratioTasks(n Spec) int { return sweepTasks(len(n.WriteFracs)) }
