package exp

import (
	"repro/internal/analytic"
)

// FormulaPoint is one (quadrant, cores) entry of the Fig 11/12 validation:
// the formula's throughput estimates against the simulator's measurement,
// and the component breakdown of the estimated queueing delay.
type FormulaPoint struct {
	Quadrant Quadrant
	Cores    int

	// C2M estimates.
	C2MMeasured     float64 // bytes/s, colocated
	C2MEstimated    float64
	C2MErrorPct     float64
	C2MEstimatedCHA float64 // with the CHA admission-delay correction
	C2MErrorCHAPct  float64
	C2MBreakdown    analytic.Components

	// P2M estimates (meaningful where P2M degrades, i.e. quadrant 3).
	P2MMeasured     float64
	P2MEstimated    float64
	P2MErrorPct     float64
	P2MEstimatedCHA float64
	P2MErrorCHAPct  float64
	P2MBreakdown    analytic.Components
}

// lfbCredits is the per-core LFB credit count of the preset.
func lfbCredits(opt Options) int { return opt.Preset().Core.LFBEntries }

// ValidateFormula applies the §6 methodology to a measured quadrant point:
//
//   - Constant_read is set from the isolated run: the measured isolated
//     domain latency minus the formula's queueing delay on the isolated
//     inputs (the paper sets constants "based on unloaded latencies").
//   - The colocated latency estimate is Constant + QD(colocated inputs),
//     converted back to throughput through the credit bound.
//   - The CHA-corrected variant adds the measured CHA admission delay, which
//     is what the paper does to recover <10% error in quadrant 3.
func ValidateFormula(p QuadrantPoint, opt Options) FormulaPoint {
	f := FormulaPoint{Quadrant: p.Quadrant, Cores: p.Cores}
	credits := lfbCredits(opt)
	coQD := p.Co.Inputs.ReadQueueingDelay()
	isoQD := p.C2MIso.Inputs.ReadQueueingDelay()
	f.C2MBreakdown = coQD

	// C2M estimate. The corrected variant adds the measured backpressure
	// delays the formula cannot see: CHA admission delay (the paper's own
	// quadrant-3 correction) and CHA->RPQ blocking.
	f.C2MMeasured = p.Co.C2MBW
	corr := p.Co.CHAAdmitLat + p.Co.RPQBlockLat
	if p.Quadrant.C2MWrites() {
		constRead := p.C2MIso.C2MReadLat - isoQD.Total()
		constWrite := p.C2MIso.C2MWriteLat
		lr := constRead + coQD.Total()
		lw := constWrite
		f.C2MEstimated = float64(p.Cores) * analytic.PairThroughput(credits, lr, lw)
		f.C2MEstimatedCHA = float64(p.Cores) * analytic.PairThroughput(credits, lr+corr, lw+p.Co.CHAAdmitLat)
	} else {
		constRead := p.C2MIso.C2MReadLat - isoQD.Total()
		lr := constRead + coQD.Total()
		f.C2MEstimated = float64(p.Cores) * analytic.Throughput(credits, lr)
		f.C2MEstimatedCHA = float64(p.Cores) * analytic.Throughput(credits, lr+corr)
	}
	f.C2MErrorPct = analytic.ErrorPct(f.C2MEstimated, f.C2MMeasured)
	f.C2MErrorCHAPct = analytic.ErrorPct(f.C2MEstimatedCHA, f.C2MMeasured)

	// P2M estimate.
	f.P2MMeasured = p.Co.P2MBW
	if p.Quadrant.P2MWrites() {
		wrCredits := opt.Preset().IIO.WriteCredits
		ad := p.Co.Inputs.WriteAdmissionDelay()
		f.P2MBreakdown = ad
		constW := p.P2MIso.P2MWriteLat - p.P2MIso.Inputs.WriteAdmissionDelay().Total()
		lw := constW + ad.Total()
		f.P2MEstimated = capAt(analytic.Throughput(wrCredits, lw), p.P2MIso.P2MBW)
		f.P2MEstimatedCHA = capAt(analytic.Throughput(wrCredits, lw+p.Co.CHAAdmitLat), p.P2MIso.P2MBW)
	} else {
		rdCredits := opt.Preset().IIO.ReadCredits
		constR := p.P2MIso.P2MReadLat - p.P2MIso.Inputs.ReadQueueingDelay().Total()
		lr := constR + coQD.Total()
		f.P2MBreakdown = coQD
		f.P2MEstimated = capAt(analytic.Throughput(rdCredits, lr), p.P2MIso.P2MBW)
		f.P2MEstimatedCHA = capAt(analytic.Throughput(rdCredits, lr+p.Co.CHAAdmitLat), p.P2MIso.P2MBW)
	}
	f.P2MErrorPct = analytic.ErrorPct(f.P2MEstimated, f.P2MMeasured)
	f.P2MErrorCHAPct = analytic.ErrorPct(f.P2MEstimatedCHA, f.P2MMeasured)
	return f
}

// capAt bounds a credit-derived estimate by the isolated (link-limited)
// throughput: spare credits mean the domain runs at the link rate, not at
// the credit bound.
func capAt(est, cap float64) float64 {
	if est > cap {
		return cap
	}
	return est
}

// RunFig11 validates the formula on every quadrant point (Fig 11), returning
// points grouped per quadrant. The same points carry the Fig 12 breakdowns.
// The four quadrant sweeps run in parallel.
func RunFig11(opt Options) map[Quadrant][]FormulaPoint {
	return perQuadrant(opt, func(q Quadrant, opt Options) []FormulaPoint {
		var fps []FormulaPoint
		for _, p := range RunQuadrant(q, DefaultCoreSweep(), opt) {
			fps = append(fps, ValidateFormula(p, opt))
		}
		return fps
	})
}
