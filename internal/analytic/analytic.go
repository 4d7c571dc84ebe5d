// Package analytic implements the paper's §6 analytical formulas for read
// and write domain latency, the quantitative validation that connects
// host-network measurements to end-to-end throughput.
//
// The read formula (Fig 9) decomposes average read queueing delay at the MC
// into switching delay, write head-of-line blocking, read head-of-line
// blocking, and top-of-queue (ACT/PRE) delay. The write formula (Fig 10) is
// the dual, gated by the probability that the WPQ is full. All inputs
// (Table 2) are captured from the simulator's uncore-counter analogues
// exactly as the paper captures them from Intel PMUs.
package analytic

import (
	"repro/internal/cha"
	"repro/internal/dram"
	"repro/internal/mem"
)

// Inputs are the Table 2 measurement inputs plus the DRAM timing constants,
// all in nanoseconds where dimensional.
type Inputs struct {
	PFillWPQ     float64 // probability the WPQ is full
	NWaiting     float64 // writes awaiting WPQ admission (measured at the CHA)
	Switches     float64 // read<->write mode switches
	LinesRead    float64 // cachelines read
	LinesWritten float64 // cachelines written
	ORPQ         float64 // average per-channel RPQ occupancy
	ACTRead      float64 // activations serving reads
	ACTWrite     float64 // activations serving writes
	PREConfRead  float64 // conflict precharges serving reads
	PREConfWrite float64 // conflict precharges serving writes

	TWTR, TRTW, TTrans, TACT, TPRE float64 // timing constants (ns)
}

// FromStats captures formula inputs from a run's MC and CHA probes.
func FromStats(mc *dram.Stats, ch *cha.Stats, t dram.Timing, channels int) Inputs {
	if channels < 1 {
		channels = 1
	}
	return Inputs{
		PFillWPQ:     mc.WPQFull.Frac(),
		NWaiting:     ch.WBacklog.Avg(),
		Switches:     float64(mc.Switches.Count()),
		LinesRead:    float64(mc.LinesRead()),
		LinesWritten: float64(mc.LinesWritten()),
		ORPQ:         mc.ReadLat.Occ.Avg() / float64(channels),
		ACTRead:      float64(mc.C2MRead.ACTs.Count() + mc.P2MRead.ACTs.Count()),
		ACTWrite:     float64(mc.C2MWrite.ACTs.Count() + mc.P2MWrite.ACTs.Count()),
		PREConfRead:  float64(mc.C2MRead.PREConflict.Count() + mc.P2MRead.PREConflict.Count()),
		PREConfWrite: float64(mc.C2MWrite.PREConflict.Count() + mc.P2MWrite.PREConflict.Count()),
		TWTR:         t.TWTR.Nanoseconds(),
		TRTW:         t.TRTW.Nanoseconds(),
		TTrans:       t.TTrans.Nanoseconds(),
		TACT:         t.TRCD.Nanoseconds(),
		TPRE:         t.TRP.Nanoseconds(),
	}
}

// Components is the per-term breakdown of a queueing/admission delay, in
// nanoseconds (Fig 12's stacked bars).
type Components struct {
	Switching  float64
	WriteHoL   float64
	ReadHoL    float64
	TopOfQueue float64
}

// Total sums the components.
func (c Components) Total() float64 {
	return c.Switching + c.WriteHoL + c.ReadHoL + c.TopOfQueue
}

// ReadQueueingDelay evaluates the Fig 9 formula: QD_read.
func (in Inputs) ReadQueueingDelay() Components {
	if in.LinesRead == 0 {
		return Components{}
	}
	var c Components
	c.Switching = in.ORPQ * (in.Switches / 2 / in.LinesRead) * in.TWTR
	c.WriteHoL = in.ORPQ * (in.LinesWritten / in.LinesRead) * in.TTrans
	if in.ORPQ > 1 {
		c.ReadHoL = (in.ORPQ - 1) * in.TTrans
	}
	c.TopOfQueue = (in.ACTRead/in.LinesRead)*in.TACT + (in.PREConfRead/in.LinesRead)*in.TPRE
	return c
}

// WriteAdmissionDelay evaluates the Fig 10 formula: AD_write = P(WPQ full) *
// X_write, with the component terms scaled by that probability so the
// breakdown still sums to the delay.
func (in Inputs) WriteAdmissionDelay() Components {
	if in.LinesWritten == 0 || in.PFillWPQ == 0 {
		return Components{}
	}
	var c Components
	c.Switching = in.NWaiting * (in.Switches / 2 / in.LinesWritten) * in.TRTW
	c.ReadHoL = in.NWaiting * (in.LinesRead / in.LinesWritten) * in.TTrans
	if in.NWaiting > 1 {
		c.WriteHoL = (in.NWaiting - 1) * in.TTrans
	}
	c.TopOfQueue = (in.ACTWrite/in.LinesWritten)*in.TACT + (in.PREConfWrite/in.LinesWritten)*in.TPRE
	c.Switching *= in.PFillWPQ
	c.WriteHoL *= in.PFillWPQ
	c.ReadHoL *= in.PFillWPQ
	c.TopOfQueue *= in.PFillWPQ
	return c
}

// ReadLatency reports the estimated average read domain latency (ns):
// Constant_read + QD_read.
func (in Inputs) ReadLatency(constNanos float64) float64 {
	return constNanos + in.ReadQueueingDelay().Total()
}

// WriteLatency reports the estimated average write domain latency (ns):
// Constant_write + AD_write.
func (in Inputs) WriteLatency(constNanos float64) float64 {
	return constNanos + in.WriteAdmissionDelay().Total()
}

// Throughput converts a latency estimate back to the credit bound: C*64/L
// in bytes/s.
func Throughput(credits int, latencyNanos float64) float64 {
	if latencyNanos <= 0 {
		return 0
	}
	return float64(credits) * mem.LineSize / (latencyNanos * 1e-9)
}

// PairThroughput models a C2M-ReadWrite core where each LFB credit
// alternates between an RFO read (latency Lr) and a writeback (latency Lw):
// a credit cycle moves two cachelines.
func PairThroughput(credits int, readLatNanos, writeLatNanos float64) float64 {
	cycle := readLatNanos + writeLatNanos
	if cycle <= 0 {
		return 0
	}
	return float64(credits) * 2 * mem.LineSize / (cycle * 1e-9)
}

// ErrorPct reports (estimated-measured)/measured in percent: positive means
// the formula overestimates throughput (underestimates latency), matching
// the sign convention of Fig 11.
func ErrorPct(estimated, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return (estimated - measured) / measured * 100
}
