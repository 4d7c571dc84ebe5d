package host

import (
	"testing"

	"repro/internal/cxl"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

func cxlDefault() cxl.Config { return cxl.DefaultConfig() }

// Determinism: two identical runs produce bit-identical measurements. This
// is what makes every experiment in this repository reproducible and the
// CI assertions stable.
func TestRunsAreDeterministic(t *testing.T) {
	run := func() (float64, float64, uint64, sim.Time) {
		h := New(CascadeLake())
		h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
		h.AddCore(workload.NewSeqReadWrite(h.Region(1<<30), 1<<30))
		h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
		h.Run(warm, win)
		return h.C2MBW(), h.P2MBW(), h.Eng.Processed(), h.Eng.Now()
	}
	c1, p1, e1, t1 := run()
	c2, p2, e2, t2 := run()
	if c1 != c2 || p1 != p2 || e1 != e2 || t1 != t2 {
		t.Fatalf("nondeterministic runs: (%v,%v,%v,%v) vs (%v,%v,%v,%v)",
			c1, p1, e1, t1, c2, p2, e2, t2)
	}
}

// Conservation at host scope: memory-level traffic accounts for exactly the
// completed core and device lines (DDIO off: no cache absorbs anything).
func TestHostLevelConservation(t *testing.T) {
	h := New(CascadeLake())
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(warm, win)
	st := h.MC.Stats()
	coreLines := h.Cores[0].Stats().LinesRead.Count()
	memC2MReads := st.C2MRead.Lines.Count()
	// In-flight boundary effects allow a few lines of slack.
	diff := int64(coreLines) - int64(memC2MReads)
	if diff < -100 || diff > 100 {
		t.Fatalf("C2M lines diverge: cores completed %d, memory served %d", coreLines, memC2MReads)
	}
	devLines := h.Devices[0].Stats().Lines.Count()
	memP2MWrites := st.P2MWrite.Lines.Count()
	diff = int64(devLines) - int64(memP2MWrites)
	if diff < -200 || diff > 200 {
		t.Fatalf("P2M lines diverge: device completed %d, memory wrote %d", devLines, memP2MWrites)
	}
}

// Isolated multi-core C2M scales close to linearly until the channels
// saturate (the mapper fix's regression guard).
func TestIsolatedC2MScaling(t *testing.T) {
	bw := make(map[int]float64)
	for _, n := range []int{1, 2, 4} {
		h := New(CascadeLake())
		for i := 0; i < n; i++ {
			h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
		}
		h.Run(warm, win)
		bw[n] = h.C2MReadBW()
	}
	if bw[2] < bw[1]*1.8 {
		t.Fatalf("2 cores scale %.2fx, want ~2x (1 core %.1f, 2 cores %.1f GB/s)",
			bw[2]/bw[1], bw[1]/1e9, bw[2]/1e9)
	}
	if bw[4] < bw[1]*3.0 {
		t.Fatalf("4 cores scale %.2fx, want >= 3x", bw[4]/bw[1])
	}
}

// The engine's clock always lands exactly at the end of the window.
func TestRunWindowExact(t *testing.T) {
	h := New(CascadeLake())
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.Run(10*sim.Microsecond, 25*sim.Microsecond)
	if h.Eng.Now() != 35*sim.Microsecond {
		t.Fatalf("clock at %v, want 35us", h.Eng.Now())
	}
}

// Throughput identity: core bandwidth equals LFB occupancy over latency
// (Little's law through the whole stack).
func TestLittlesLawAcrossTheStack(t *testing.T) {
	h := New(CascadeLake())
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.Run(warm, win)
	st := h.Cores[0].Stats()
	measured := st.ReadBytesPerSec()
	identity := st.LFBLat.Occ.Avg() * 64 / (st.LFBLat.AvgNanos() * 1e-9)
	ratio := measured / identity
	if ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("Little's law identity violated: measured %.2f vs O*64/L %.2f GB/s",
			measured/1e9, identity/1e9)
	}
}

// The §7 "new interconnects" extension: CXL-homed traffic trades latency for
// isolation — it neither suffers from nor contributes to host-DRAM
// contention.
func TestCXLIsolationTradeoff(t *testing.T) {
	// CXL-homed reader alone: latency around 230-260 ns, credit-bound
	// throughput ~3 GB/s.
	iso := NewWithCXL(CascadeLake(), cxlDefault())
	iso.AddCore(workload.NewSeqRead(iso.CXLRegion(1<<30), 1<<30))
	iso.Run(warm, win)
	isoLat := iso.Cores[0].Stats().LFBLat.AvgNanos()
	isoBW := iso.C2MReadBW()
	if isoLat < 200 || isoLat > 280 {
		t.Fatalf("CXL read latency %.0f ns, want ~230", isoLat)
	}

	// Colocated with bulk P2M writes into host DRAM: the CXL reader is
	// untouched (isolation), and so is the P2M side.
	co := NewWithCXL(CascadeLake(), cxlDefault())
	co.AddCore(workload.NewSeqRead(co.CXLRegion(1<<30), 1<<30))
	co.AddStorage(periph.BulkConfig(periph.DMAWrite, co.Region(1<<30)))
	co.Run(warm, win)
	coLat := co.Cores[0].Stats().LFBLat.AvgNanos()
	if coLat > isoLat*1.02 {
		t.Fatalf("CXL reader disturbed by DRAM-side P2M: %.0f -> %.0f ns", isoLat, coLat)
	}
	if co.P2MBW() < 13.5e9 {
		t.Fatalf("P2M degraded (%.1f GB/s) by CXL traffic it never shares a controller with", co.P2MBW()/1e9)
	}

	// Contrast: the same reader DRAM-homed degrades 1.27x (the blue regime).
	dram := NewWithCXL(CascadeLake(), cxlDefault())
	dram.AddCore(workload.NewSeqRead(dram.Region(1<<30), 1<<30))
	dram.AddStorage(periph.BulkConfig(periph.DMAWrite, dram.Region(1<<30)))
	dram.Run(warm, win)
	if d := 10.79e9 / dram.C2MReadBW(); d < 1.15 {
		t.Fatalf("DRAM-homed contrast case lost its blue regime: %.2fx", d)
	}
	t.Logf("CXL: iso %.0fns/%.2fGB/s; colocated %.0fns (isolated from DRAM contention)",
		isoLat, isoBW/1e9, coLat)
}
