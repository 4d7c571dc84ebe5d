package host

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	warm = 20 * sim.Microsecond
	win  = 100 * sim.Microsecond
)

func TestC2MReadUnloadedCalibration(t *testing.T) {
	h := New(CascadeLake())
	base := h.Region(1 << 30)
	h.AddCore(workload.NewSeqRead(base, 1<<30))
	h.Run(warm, win)
	lat := h.Cores[0].Stats().LFBLat.AvgNanos()
	// §4.2: unloaded C2M-Read domain latency ~70 ns.
	if lat < 60 || lat > 80 {
		t.Fatalf("unloaded C2M-Read latency = %.1f ns, want ~70", lat)
	}
	// The core keeps all LFB credits in flight.
	if occ := h.Cores[0].Stats().LFBLat.Occ.Max(); occ != 12 {
		t.Fatalf("LFB occupancy max = %d, want 12", occ)
	}
	// Throughput = C*64/L.
	bw := h.C2MReadBW()
	wantBW := 12 * 64 / (lat * 1e-9)
	if bw < wantBW*0.9 || bw > wantBW*1.1 {
		t.Fatalf("C2M-Read bw = %.2f GB/s, want ~%.2f", bw/1e9, wantBW/1e9)
	}
}

func TestC2MWriteUnloadedCalibration(t *testing.T) {
	h := New(CascadeLake())
	base := h.Region(1 << 30)
	h.AddCore(workload.NewSeqReadWrite(base, 1<<30))
	h.Run(warm, win)
	wlat := h.Cores[0].Stats().WriteLat.AvgNanos()
	// §4.2: unloaded C2M-Write domain latency ~10 ns.
	if wlat < 5 || wlat > 15 {
		t.Fatalf("unloaded C2M-Write latency = %.1f ns, want ~10", wlat)
	}
	// 50/50 read/write memory traffic.
	st := h.MC.Stats()
	reads, writes := st.C2MRead.Lines.Count(), st.C2MWrite.Lines.Count()
	ratio := float64(writes) / float64(reads+writes)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("write fraction = %.2f, want ~0.5", ratio)
	}
}

func TestP2MWriteUnloadedCalibration(t *testing.T) {
	h := New(CascadeLake())
	base := h.Region(1 << 30)
	h.AddStorage(periph.ProbeConfig(periph.DMAWrite, base))
	h.Run(200*sim.Microsecond, 500*sim.Microsecond)
	lat := h.IIO.Stats().WriteLat.AvgNanos()
	// §4.2: unloaded P2M-Write domain latency ~300 ns.
	if lat < 270 || lat > 330 {
		t.Fatalf("unloaded P2M-Write latency = %.1f ns, want ~300", lat)
	}
}

func TestP2MWriteBulkSaturatesPCIe(t *testing.T) {
	h := New(CascadeLake())
	base := h.Region(1 << 30)
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, base))
	h.Run(warm, win)
	bw := h.P2MBW()
	// ~14 GB/s achievable on the 16 GB/s link.
	if bw < 13e9 || bw > 14.5e9 {
		t.Fatalf("bulk P2M-Write bw = %.2f GB/s, want ~14", bw/1e9)
	}
	// Spare credits: ~65 needed of 92 (§5.1).
	occ := h.IIO.Stats().WriteOcc.Avg()
	if occ < 50 || occ > 85 {
		t.Fatalf("IIO write occupancy = %.1f, want ~65", occ)
	}
}

func TestP2MReadBulkThroughput(t *testing.T) {
	h := New(CascadeLake())
	base := h.Region(1 << 30)
	h.AddStorage(periph.BulkConfig(periph.DMARead, base))
	h.Run(warm, win)
	bw := h.P2MBW()
	if bw < 13e9 || bw > 14.5e9 {
		t.Fatalf("bulk P2M-Read bw = %.2f GB/s, want ~14", bw/1e9)
	}
}

// The headline blue-regime smoke test: one C2M-Read core colocated with
// bulk P2M writes. C2M latency must inflate (throughput degrades) while P2M
// throughput stays at the link rate, with memory bandwidth far from
// saturated.
func TestBlueRegimeSmoke(t *testing.T) {
	// Isolated C2M baseline.
	iso := New(CascadeLake())
	iso.AddCore(workload.NewSeqRead(iso.Region(1<<30), 1<<30))
	iso.Run(warm, win)
	isoBW := iso.C2MReadBW()

	// Colocated.
	h := New(CascadeLake())
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(warm, win)

	coBW := h.C2MReadBW()
	p2m := h.P2MBW()
	degr := isoBW / coBW
	if degr < 1.1 || degr > 2.2 {
		t.Fatalf("C2M degradation = %.2fx, want within the blue-regime band (1.2-1.7)", degr)
	}
	if p2m < 13e9 {
		t.Fatalf("P2M bw degraded to %.2f GB/s; the blue regime leaves P2M intact", p2m/1e9)
	}
	c2mMem, p2mMem := h.MemBW()
	util := (c2mMem + p2mMem) / h.Cfg.TheoreticalMemBW
	if util > 0.75 {
		t.Fatalf("memory utilization %.0f%% — the blue regime must appear before saturation", util*100)
	}
	// Root cause: row miss ratio for C2M reads rises when intermixed.
	misses := h.MC.Stats().C2MRead.RowMissRatio()
	isoMisses := iso.MC.Stats().C2MRead.RowMissRatio()
	if misses <= isoMisses {
		t.Fatalf("row miss ratio did not rise: iso=%.3f co=%.3f", isoMisses, misses)
	}
}

func TestIceLakePreset(t *testing.T) {
	h := New(IceLake())
	base := h.Region(1 << 30)
	h.AddCore(workload.NewSeqRead(base, 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(warm, win)
	if bw := h.P2MBW(); bw < 24e9 {
		t.Fatalf("IceLake P2M bw = %.2f GB/s, want ~28", bw/1e9)
	}
	if h.C2MReadBW() <= 0 {
		t.Fatalf("no C2M progress on IceLake")
	}
}

func TestRegionAllocatorDisjoint(t *testing.T) {
	h := New(CascadeLake())
	a := h.Region(1 << 20)
	b := h.Region(1 << 30)
	c := h.Region(3 << 30)
	d := h.Region(1 << 20)
	if a == b || b == c || c == d {
		t.Fatalf("regions overlap: %x %x %x %x", a, b, c, d)
	}
	if b-a < 1<<30 || c-b < 1<<30 || d-c < 3<<30 {
		t.Fatalf("regions not spaced: %x %x %x %x", a, b, c, d)
	}
}

func TestMaxCoresEnforced(t *testing.T) {
	h := New(CascadeLake())
	for i := 0; i < h.Cfg.MaxCores; i++ {
		h.AddCore(workload.NewSeqRead(h.Region(1<<20), 1<<20))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("exceeding MaxCores did not panic")
		}
	}()
	h.AddCore(workload.NewSeqRead(0, 1<<20))
}

func TestResetStatsClearsWindow(t *testing.T) {
	h := New(CascadeLake())
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.Run(warm, win)
	if h.C2MReadBW() <= 0 {
		t.Fatalf("no bandwidth measured")
	}
	h.ResetStats()
	if h.Cores[0].Stats().LinesRead.Count() != 0 {
		t.Fatalf("reset did not clear core counters")
	}
}

func TestMemBWSplitBySource(t *testing.T) {
	h := New(CascadeLake())
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(warm, win)
	c2m, p2m := h.MemBW()
	if c2m <= 0 || p2m <= 0 {
		t.Fatalf("split bandwidth: c2m=%.2f p2m=%.2f", c2m/1e9, p2m/1e9)
	}
	// P2M memory traffic should be ~the device bandwidth (DDIO off).
	dev := h.P2MBW()
	if p2m < dev*0.9 || p2m > dev*1.1 {
		t.Fatalf("P2M memory traffic %.2f vs device %.2f GB/s", p2m/1e9, dev/1e9)
	}
}

func TestRandomReadWorkload(t *testing.T) {
	h := New(CascadeLake())
	h.AddCore(workload.NewRandRead(h.Region(5<<30), 5<<30, 7))
	h.Run(warm, win)
	// Random reads suffer row misses: latency above the sequential 70 ns.
	lat := h.Cores[0].Stats().LFBLat.AvgNanos()
	if lat < 70 {
		t.Fatalf("random-read latency %.1f ns should exceed sequential ~70", lat)
	}
	if miss := h.MC.Stats().C2MRead.RowMissRatio(); miss < 0.5 {
		t.Fatalf("random reads should miss rows often, got %.2f", miss)
	}
}

var _ = mem.LineSize // keep mem imported for future assertions
