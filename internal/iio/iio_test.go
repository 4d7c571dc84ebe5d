package iio

import (
	"testing"

	"repro/internal/cha"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

func testRig(cfg Config) (*sim.Engine, *IIO, *dram.Controller) {
	eng := sim.New()
	mapper := mem.MustMapper(mem.MapperConfig{Channels: 1, Banks: 16, RowBytes: 8192})
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = dram.Timing{
		TTrans: 3 * sim.Nanosecond, TRCD: 15 * sim.Nanosecond, TRP: 15 * sim.Nanosecond,
		TCL: 15 * sim.Nanosecond, TWTR: 8 * sim.Nanosecond, TRTW: 6 * sim.Nanosecond,
	}
	mc := dram.New(eng, mcCfg, mapper, nil)
	ch := cha.New(eng, cha.DefaultConfig(), mc, nil)
	return eng, New(eng, cfg, ch), mc
}

func TestWriteCreditLifecycle(t *testing.T) {
	eng, io, _ := testRig(DefaultConfig())
	done := false
	eng.AtFunc(0, func(any) {
		if !io.TryWrite(0, 0, func() { done = true }) {
			t.Errorf("TryWrite failed on idle IIO")
		}
		if io.WriteCreditsFree() != 91 {
			t.Errorf("credit not consumed: %d", io.WriteCreditsFree())
		}
	}, nil)
	eng.Run()
	if !done {
		t.Fatalf("write never completed")
	}
	if io.WriteCreditsFree() != 92 {
		t.Fatalf("credit not replenished: %d", io.WriteCreditsFree())
	}
	// Unloaded P2M-Write latency ~300 ns per the §4.2 calibration.
	lat := io.Stats().WriteLat.AvgNanos()
	if lat < 270 || lat > 330 {
		t.Fatalf("unloaded write latency %.1f ns, want ~300", lat)
	}
}

func TestWriteLinkPacing(t *testing.T) {
	eng, io, _ := testRig(DefaultConfig())
	granted := 0
	eng.AtFunc(0, func(any) {
		for i := 0; i < 10; i++ {
			if io.TryWrite(mem.Addr(i*mem.LineSize), 0, nil) {
				granted++
			}
		}
	}, nil)
	eng.RunUntil(0)
	// The upstream link serializes: only one TLP can start per LinePeriodUp.
	if granted != 1 {
		t.Fatalf("granted %d writes at one instant, want 1 (link paced)", granted)
	}
}

func TestWriteCreditExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteCredits = 2
	cfg.LinePeriodUp = 0 // disable pacing to isolate the credit limit
	eng, io, _ := testRig(cfg)
	granted := 0
	eng.AtFunc(0, func(any) {
		for i := 0; i < 5; i++ {
			if io.TryWrite(mem.Addr(i*mem.LineSize), 0, nil) {
				granted++
			}
		}
	}, nil)
	eng.RunUntil(0)
	if granted != 2 {
		t.Fatalf("granted %d, want 2 (credit bound)", granted)
	}
}

func TestNotifyWriteFiresOnCreditReturn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteCredits = 1
	cfg.LinePeriodUp = 0
	eng, io, _ := testRig(cfg)
	notified := sim.Time(-1)
	eng.AtFunc(0, func(any) {
		io.TryWrite(0, 0, nil)
		if io.TryWrite(64, 0, nil) {
			t.Errorf("second write should be credit-blocked")
		}
		io.NotifyWrite(func() { notified = eng.Now() })
	}, nil)
	eng.Run()
	if notified < 0 {
		t.Fatalf("NotifyWrite never fired")
	}
	if notified < 200*sim.Nanosecond {
		t.Fatalf("notified too early (%v); credit returns after ~300ns", notified)
	}
}

func TestReadCreditLifecycle(t *testing.T) {
	eng, io, mc := testRig(DefaultConfig())
	done := false
	eng.AtFunc(0, func(any) {
		if !io.TryRead(0, 0, func() { done = true }) {
			t.Errorf("TryRead failed on idle IIO")
		}
	}, nil)
	eng.Run()
	if !done {
		t.Fatalf("read never completed")
	}
	if io.ReadCreditsFree() != 164 {
		t.Fatalf("read credit not replenished")
	}
	if mc.Stats().P2MRead.Lines.Count() != 1 {
		t.Fatalf("read did not reach memory")
	}
	// Non-posted round trip: request + DRAM + downstream delivery.
	lat := io.Stats().ReadLat.AvgNanos()
	if lat < 150 || lat > 350 {
		t.Fatalf("unloaded read latency %.1f ns out of plausible range", lat)
	}
}

func TestReadIssuePacing(t *testing.T) {
	eng, io, _ := testRig(DefaultConfig())
	granted := 0
	eng.AtFunc(0, func(any) {
		for i := 0; i < 10; i++ {
			if io.TryRead(mem.Addr(i*mem.LineSize), 0, nil) {
				granted++
			}
		}
	}, nil)
	eng.RunUntil(0)
	if granted != 1 {
		t.Fatalf("granted %d reads at one instant, want 1 (paced)", granted)
	}
}

func TestBulkWriteThroughputIsLinkBound(t *testing.T) {
	eng, io, _ := testRig(DefaultConfig())
	// Saturating pump: always refill on credit/link availability.
	var pump func()
	pump = func() {
		for io.TryWrite(0, 0, nil) {
		}
		io.NotifyWrite(pump)
	}
	eng.AtFunc(0, func(any) { pump() }, nil)
	eng.RunUntil(20 * sim.Microsecond)
	io.Stats().Reset()
	eng.RunUntil(120 * sim.Microsecond)
	bw := io.Stats().LinesIn.BytesPerSecond()
	// 64B / 4.57ns = 14 GB/s.
	if bw < 13.5e9 || bw > 14.3e9 {
		t.Fatalf("bulk write bw %.2f GB/s, want ~14", bw/1e9)
	}
	// Spare credits: ~66 of 92 in use.
	occ := io.Stats().WriteOcc.Avg()
	if occ < 55 || occ > 80 {
		t.Fatalf("write occupancy %.1f, want ~66", occ)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("zero credits did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.WriteCredits = 0
	testRig(cfg)
}

func TestStatsReset(t *testing.T) {
	eng, io, _ := testRig(DefaultConfig())
	eng.AtFunc(0, func(any) { io.TryWrite(0, 0, nil) }, nil)
	eng.Run()
	io.Stats().Reset()
	if io.Stats().LinesIn.Count() != 0 {
		t.Fatalf("reset incomplete")
	}
}
