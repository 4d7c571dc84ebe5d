package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/host"
	"repro/internal/periph"
	"repro/internal/workload"
)

// Quadrant identifies one of the §2.2 colocation scenarios.
type Quadrant int

// The four quadrants of Fig 3.
const (
	Q1 Quadrant = 1 + iota // C2M-Read   + P2M-Write (blue)
	Q2                     // C2M-Read   + P2M-Read  (blue)
	Q3                     // C2M-ReadWrite + P2M-Write (red)
	Q4                     // C2M-ReadWrite + P2M-Read  (blue)
)

// C2MWrites reports whether the quadrant's compute workload stores.
func (q Quadrant) C2MWrites() bool { return q == Q3 || q == Q4 }

// P2MWrites reports whether the quadrant's peripheral workload DMA-writes.
func (q Quadrant) P2MWrites() bool { return q == Q1 || q == Q3 }

// String names the quadrant like the paper's captions.
func (q Quadrant) String() string {
	c2m, p2m := "C2M-Read", "P2M-Read"
	if q.C2MWrites() {
		c2m = "C2M-ReadWrite"
	}
	if q.P2MWrites() {
		p2m = "P2M-Write"
	}
	return fmt.Sprintf("Q%d (%s, %s)", int(q), c2m, p2m)
}

// addC2MCores attaches n cores running the quadrant's compute workload.
func addC2MCores(h *host.Host, q Quadrant, n int) {
	for i := 0; i < n; i++ {
		base := h.Region(1 << 30)
		var gen cpu.Generator
		if q.C2MWrites() {
			gen = workload.NewSeqReadWrite(base, 1<<30)
		} else {
			gen = workload.NewSeqRead(base, 1<<30)
		}
		h.AddCore(gen)
	}
}

// addP2MDevice attaches the quadrant's bulk FIO device.
func addP2MDevice(h *host.Host, q Quadrant) {
	dir := periph.DMARead
	if q.P2MWrites() {
		dir = periph.DMAWrite
	}
	h.AddStorage(periph.BulkConfig(dir, h.Region(1<<30)))
}

// runKey fingerprints one fig-3-style simulation run. Under one host
// config, warmup and window, two runs with equal keys are the same
// simulation from t=0: the host build sequence is a pure function of the
// key, and the engine is deterministic. Quadrants overlap heavily — Q1/Q2
// share every C2M-Read isolated baseline, Q3/Q4 every C2M-ReadWrite one,
// and quadrant pairs share the two device baselines — so a run cache
// (Options.Runs, with the config added to the key) simulates each unique
// key once: fig3's 4x13 run lookups are 38 simulations, with the same
// bytes. Keys name the first quadrant (Q1, then Q2/Q3) whose workloads
// the run uses.
type runKey struct {
	q      Quadrant
	cores  int  // C2M cores (0 = device-only baseline)
	device bool // the quadrant's bulk FIO device is attached
}

func isoRunKey(q Quadrant, cores int) runKey {
	if q.C2MWrites() {
		return runKey{Q3, cores, false}
	}
	return runKey{Q1, cores, false}
}

func p2mRunKey(q Quadrant) runKey {
	if q.P2MWrites() {
		return runKey{Q1, 0, true}
	}
	return runKey{Q2, 0, true}
}

func coRunKey(q Quadrant, cores int) runKey { return runKey{q, cores, true} }

// run measures the keyed simulation's window, from opt.Runs when an
// earlier lookup already ran it. The host is built from the key alone.
func (k runKey) run(opt Options) Measure {
	return opt.oneHostRun(k, false, func(h *host.Host) Measure {
		addC2MCores(h, k.q, k.cores)
		if k.device {
			addP2MDevice(h, k.q)
		}
		h.Run(opt.Warmup, opt.Window)
		return snapshot(h)
	})
}

// quadrantRun measures one host running the quadrant's compute workload on
// cores C2M cores and, with device set, its bulk FIO device.
func quadrantRun(opt Options, q Quadrant, cores int, device bool) Measure {
	switch {
	case !device:
		return isoRunKey(q, cores).run(opt)
	case cores == 0:
		return p2mRunKey(q).run(opt)
	}
	return coRunKey(q, cores).run(opt)
}

// QuadrantPoint is one (quadrant, C2M core count) data point: the isolated
// baselines, the colocated measurement, and derived degradations.
type QuadrantPoint struct {
	Quadrant Quadrant
	Cores    int

	C2MIso Measure // N C2M cores alone
	P2MIso Measure // device alone
	Co     Measure // colocated
}

// C2MDegradation reports isolated/colocated C2M throughput (Fig 3 left bars).
func (p QuadrantPoint) C2MDegradation() float64 { return degradation(p.C2MIso.C2MBW, p.Co.C2MBW) }

// P2MDegradation reports isolated/colocated P2M throughput.
func (p QuadrantPoint) P2MDegradation() float64 { return degradation(p.P2MIso.P2MBW, p.Co.P2MBW) }

// Regime classifies the point.
func (p QuadrantPoint) Regime() core.Regime {
	return core.Classify(p.C2MDegradation(), p.P2MDegradation())
}

// RunQuadrantPoint measures one data point (three runs).
func RunQuadrantPoint(q Quadrant, cores int, opt Options) QuadrantPoint {
	return QuadrantPoint{Quadrant: q, Cores: cores,
		C2MIso: quadrantRun(opt, q, cores, false),
		P2MIso: quadrantRun(opt, q, 0, true),
		Co:     quadrantRun(opt, q, cores, true)}
}

// RunQuadrant sweeps C2M core counts for one quadrant — the Fig 3 series,
// which the deep-dive figures (7, 8, 13, 14) then read probes from. The
// per-count points and the shared P2M baseline all run on the options'
// worker pool.
func RunQuadrant(q Quadrant, coreCounts []int, opt Options) []QuadrantPoint {
	// The P2M isolated baseline is independent of the C2M core count.
	var p2mIso Measure
	pts := sweep(opt, coreCounts, func() { p2mIso = quadrantRun(opt, q, 0, true) },
		func(_, n int) QuadrantPoint {
			return QuadrantPoint{Quadrant: q, Cores: n,
				C2MIso: quadrantRun(opt, q, n, false), Co: quadrantRun(opt, q, n, true)}
		})
	for i := range pts {
		pts[i].P2MIso = p2mIso
	}
	return pts
}

// quadrantTasks mirrors RunQuadrant and RunRDMAQuadrant over n's cores.
func quadrantTasks(n Spec) int { return sweepTasks(len(n.Cores)) }

// DefaultCoreSweep matches the paper's Cascade Lake sweep: the C2M app gets
// the cores not dedicated to the P2M app.
func DefaultCoreSweep() []int { return []int{1, 2, 3, 4, 5, 6} }

var quadrants = []Quadrant{Q1, Q2, Q3, Q4}

// perQuadrant runs one series per quadrant in parallel, keyed by quadrant.
// The series share baselines (see runKey), so a call whose options carry no
// run cache gets a private one: each distinct run simulates once per call.
func perQuadrant[P any](opt Options, series func(q Quadrant, opt Options) []P) map[Quadrant][]P {
	if opt.Runs == nil {
		opt.Runs = NewRunCache()
	}
	all := pmap(opt, len(quadrants), func(i int) []P { return series(quadrants[i], opt) })
	out := make(map[Quadrant][]P, len(all))
	for i, q := range quadrants {
		out[q] = all[i]
	}
	return out
}

// fourQuadrantTasks mirrors perQuadrant over default-core quadrant sweeps
// (RunFig3, RunFig11, RunFig18, RunFig27).
func fourQuadrantTasks(Spec) int { return 4 + 4*sweepTasks(len(DefaultCoreSweep())) }

// RunFig3 runs all four quadrants (Fig 3).
func RunFig3(opt Options) map[Quadrant][]QuadrantPoint {
	return perQuadrant(opt, func(q Quadrant, opt Options) []QuadrantPoint {
		return RunQuadrant(q, DefaultCoreSweep(), opt)
	})
}
