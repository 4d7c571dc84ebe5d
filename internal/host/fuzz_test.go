package host

import (
	"testing"
	"testing/quick"

	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Property: for arbitrary mixes of workloads, the host never deadlocks, all
// probe levels drain back toward steady values, measured latencies never
// fall below the unloaded constants, and no bandwidth exceeds its physical
// ceiling. This is the whole-system failure-injection net: any credit leak,
// lost wake-up, or accounting bug in any component surfaces here.
func TestHostInvariantsUnderRandomMixes(t *testing.T) {
	type mix struct {
		SeqReadCores  uint8
		SeqWriteCores uint8
		RandCores     uint8
		Dir           bool // device direction
		Devices       uint8
	}
	f := func(m mix) bool {
		h := New(CascadeLake())
		nSeq := int(m.SeqReadCores % 3)
		nWr := int(m.SeqWriteCores % 3)
		nRand := int(m.RandCores % 3)
		if nSeq+nWr+nRand == 0 {
			nSeq = 1
		}
		for i := 0; i < nSeq; i++ {
			h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
		}
		for i := 0; i < nWr; i++ {
			h.AddCore(workload.NewSeqReadWrite(h.Region(1<<30), 1<<30))
		}
		for i := 0; i < nRand; i++ {
			h.AddCore(workload.NewRandRead(h.Region(1<<30), 1<<30, uint64(i+7)))
		}
		dir := periph.DMAWrite
		if m.Dir {
			dir = periph.DMARead
		}
		for d := 0; d < int(m.Devices%3); d++ {
			h.AddStorage(periph.BulkConfig(dir, h.Region(1<<30)))
		}
		h.Run(5*sim.Microsecond, 20*sim.Microsecond)

		// 1. Progress: every core and device moved data.
		for _, c := range h.Cores {
			if c.Stats().LinesRead.Count()+c.Stats().LinesWritten.Count() == 0 {
				t.Logf("core %d made no progress", c.Index())
				return false
			}
		}
		for i, d := range h.Devices {
			if d.Stats().Lines.Count() == 0 {
				t.Logf("device %d made no progress", i)
				return false
			}
		}
		// 2. Physical ceilings.
		c2m, p2m := h.MemBW()
		if c2m+p2m > h.Cfg.TheoreticalMemBW*1.001 {
			t.Logf("memory bandwidth %.1f exceeds ceiling", (c2m+p2m)/1e9)
			return false
		}
		if h.P2MBW() > 14.5e9 {
			t.Logf("P2M bandwidth %.1f exceeds the link", h.P2MBW()/1e9)
			return false
		}
		// 3. Latency floors (nothing completes faster than unloaded).
		for _, c := range h.Cores {
			if rl := c.Stats().ReadLat.AvgNanos(); rl > 0 && rl < 60 {
				t.Logf("read latency %.1f below unloaded floor", rl)
				return false
			}
		}
		if wl := h.IIO.Stats().WriteLat.AvgNanos(); wl > 0 && wl < 280 {
			t.Logf("P2M write latency %.1f below unloaded floor", wl)
			return false
		}
		// 4. Occupancy sanity: levels bounded by their pools.
		if h.IIO.Stats().WriteOcc.Max() > h.Cfg.IIO.WriteCredits {
			t.Logf("IIO write occupancy exceeded credits")
			return false
		}
		for _, c := range h.Cores {
			if c.Stats().LFBLat.Occ.Max() > h.Cfg.Core.LFBEntries {
				t.Logf("LFB occupancy exceeded entries")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: latency monotonicity — adding a device to any C2M mix never
// reduces the cores' average read latency.
func TestColocationNeverSpeedsUpC2M(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%3) + 1
		run := func(withDev bool) float64 {
			h := New(CascadeLake())
			for i := 0; i < n; i++ {
				h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
			}
			if withDev {
				h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
			}
			h.Run(5*sim.Microsecond, 20*sim.Microsecond)
			return h.AvgLFBLatNanos()
		}
		iso, co := run(false), run(true)
		return co >= iso*0.995
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
