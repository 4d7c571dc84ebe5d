package exp

import (
	"repro/internal/analytic"
	"repro/internal/mem"
)

// RunFig27 applies the §6 formula to the RDMA case study (Fig 27, with the
// Fig 28 breakdowns inside each point): the same methodology as Fig 11,
// with NIC-generated P2M traffic. The four quadrant sweeps run in parallel.
func RunFig27(opt Options) map[Quadrant][]FormulaPoint {
	return perQuadrant(opt, func(q Quadrant, opt Options) []FormulaPoint {
		var fps []FormulaPoint
		for _, p := range RunRDMAQuadrant(q, DefaultCoreSweep(), opt) {
			fps = append(fps, ValidateFormula(p.QuadrantPoint, opt))
		}
		return fps
	})
}

// DCTCPFormulaPoint is one Fig 29/30 entry: formula-vs-measured throughput
// for the memory app and for the network app's C2M (copy) and P2M (DMA)
// halves, following Appendix E.2's methodology.
type DCTCPFormulaPoint struct {
	C2MCores  int
	ReadWrite bool

	MemMeasured, MemEstimated       float64
	MemErrPct                       float64
	NetC2MMeasured, NetC2MEstimated float64
	NetC2MErrPct                    float64
	NetP2MMeasured, NetP2MEstimated float64
	NetP2MErrPct                    float64
	Breakdown                       analytic.Components
}

// ValidateDCTCPFormula estimates throughputs from the formula and the
// measured occupancies, per Appendix E.2: the network app's C2M throughput
// is its measured LFB occupancy divided by the formula's C2M latency, and
// its P2M throughput is the measured IIO occupancy divided by the formula's
// P2M-Write latency.
func ValidateDCTCPFormula(p DCTCPPoint, opt Options) DCTCPFormulaPoint {
	f := DCTCPFormulaPoint{C2MCores: p.C2MCores, ReadWrite: p.ReadWrite}
	credits := lfbCredits(opt)
	coQD := p.Co.Inputs.ReadQueueingDelay()
	isoQD := p.MemIso.Inputs.ReadQueueingDelay()
	f.Breakdown = coQD
	corr := p.Co.CHAAdmitLat + p.Co.RPQBlockLat

	// Memory app: identical to the quadrant methodology.
	constRead := p.MemIso.C2MReadLat - isoQD.Total()
	lr := constRead + coQD.Total() + corr
	f.MemMeasured = p.MemAppCo
	if p.ReadWrite {
		lw := p.MemIso.C2MWriteLat + p.Co.CHAAdmitLat
		f.MemEstimated = float64(p.C2MCores) * analytic.PairThroughput(credits, lr, lw)
	} else {
		f.MemEstimated = float64(p.C2MCores) * analytic.Throughput(credits, lr)
	}
	f.MemErrPct = analytic.ErrorPct(f.MemEstimated, f.MemMeasured)

	// Network app C2M half: measured copier LFB occupancy over the formula's
	// C2M read latency. The occupancy is read-dominated (writebacks hold
	// entries only ~10 ns), while the copy moves two lines per read (socket
	// read + app-buffer writeback), hence the factor of two.
	f.NetC2MMeasured = p.CopierC2MBW
	if lr > 0 {
		f.NetC2MEstimated = 2 * p.CopierLFBOcc * mem.LineSize / (lr * 1e-9)
	}
	f.NetC2MErrPct = analytic.ErrorPct(f.NetC2MEstimated, f.NetC2MMeasured)

	// Network app P2M half: measured IIO occupancy over the formula's
	// P2M-Write latency.
	ad := p.Co.Inputs.WriteAdmissionDelay()
	lwP2M := p.NetIsoP2MLat + ad.Total() + p.Co.CHAAdmitLat
	f.NetP2MMeasured = p.P2MCo
	if lwP2M > 0 {
		f.NetP2MEstimated = p.Co.IIOWriteOcc * mem.LineSize / (lwP2M * 1e-9)
	}
	f.NetP2MErrPct = analytic.ErrorPct(f.NetP2MEstimated, f.NetP2MMeasured)
	return f
}

// RunFig29 validates the formula on both TCP case studies (Fig 29; the
// Fig 30 breakdowns ride along).
func RunFig29(opt Options) (read, readWrite []DCTCPFormulaPoint) {
	rd, rw := RunFig19(opt)
	for _, p := range rd {
		read = append(read, ValidateDCTCPFormula(p, opt))
	}
	for _, p := range rw {
		readWrite = append(readWrite, ValidateDCTCPFormula(p, opt))
	}
	return read, readWrite
}
