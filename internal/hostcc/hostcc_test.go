package hostcc

import (
	"testing"

	"repro/internal/cha"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/iio"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

type rig struct {
	eng   *sim.Engine
	io    *iio.IIO
	ch    *cha.CHA
	cores []*cpu.Core
}

func newRig(nCores int) *rig {
	eng := sim.New()
	mapper := mem.MustMapper(mem.DefaultMapperConfig())
	mc := dram.New(eng, dram.DefaultConfig(), mapper, nil)
	ch := cha.New(eng, cha.DefaultConfig(), mc, nil)
	io := iio.New(eng, iio.DefaultConfig(), ch)
	r := &rig{eng: eng, io: io, ch: ch}
	for i := 0; i < nCores; i++ {
		c := cpu.New(eng, cpu.DefaultConfig(), i,
			ch, workload.NewSeqRead(mem.Addr(i)<<30, 1<<30))
		c.Start(0)
		r.cores = append(r.cores, c)
	}
	return r
}

func TestControllerRelaxesWhenQuiet(t *testing.T) {
	r := newRig(2)
	ctl := New(r.eng, DefaultConfig(), r.io, r.ch, r.cores)
	ctl.Start(0)
	r.eng.RunUntil(100 * sim.Microsecond)
	// No P2M traffic at all: the signal never fires and the throttle stays
	// at the base gap.
	if frac := ctl.Congested.Frac(); frac != 0 {
		t.Fatalf("congested %.2f of the time on an idle IIO", frac)
	}
	if gap := ctl.GapNanos(); gap > 1 {
		t.Fatalf("throttle %.1f ns without congestion", gap)
	}
}

func TestControllerThrottlesOnIIOSignal(t *testing.T) {
	r := newRig(2)
	cfg := DefaultConfig()
	cfg.IIOOccHigh = 1 // make any P2M write in flight look congested
	ctl := New(r.eng, cfg, r.io, r.ch, r.cores)
	ctl.Start(0)
	// Keep one DMA write in flight continuously.
	var pump func()
	pump = func() {
		if !r.io.TryWrite(0, 0, nil) {
			r.io.NotifyWrite(pump)
			return
		}
		r.eng.AfterFunc(100*sim.Nanosecond, func(any) { pump() }, nil)
	}
	r.eng.AtFunc(0, func(any) { pump() }, nil)
	r.eng.RunUntil(100 * sim.Microsecond)
	if frac := ctl.Congested.Frac(); frac < 0.3 {
		t.Fatalf("congestion signal fired only %.2f of the time", frac)
	}
	if gap := ctl.GapNanos(); gap < 5 {
		t.Fatalf("throttle %.1f ns despite persistent congestion", gap)
	}
	for _, c := range r.cores {
		if c.IssueGap() < 5*sim.Nanosecond {
			t.Fatalf("core gap %v not applied", c.IssueGap())
		}
	}
}

func TestThrottleBounded(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig()
	cfg.IIOOccHigh = 0 // always congested
	cfg.MaxGap = 20 * sim.Nanosecond
	ctl := New(r.eng, cfg, r.io, r.ch, r.cores)
	ctl.Start(0)
	r.eng.RunUntil(200 * sim.Microsecond)
	if gap := ctl.GapNanos(); gap > 20.5 {
		t.Fatalf("throttle %.1f ns exceeded MaxGap", gap)
	}
}

func TestThrottleDecaysAfterCongestion(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig()
	ctl := New(r.eng, cfg, r.io, r.ch, r.cores)
	// Manufacture a throttled state, then run with no congestion: the gap
	// must decay geometrically back toward the base.
	ctl.gap = 40 * sim.Nanosecond
	ctl.Start(0)
	r.eng.RunUntil(100 * sim.Microsecond)
	if gap := ctl.GapNanos(); gap > 2 {
		t.Fatalf("throttle %.1f ns did not decay", gap)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	r := newRig(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid config did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Relax = 1.5
	New(r.eng, cfg, r.io, r.ch, r.cores)
}

func TestStartIdempotent(t *testing.T) {
	r := newRig(1)
	ctl := New(r.eng, DefaultConfig(), r.io, r.ch, r.cores)
	ctl.Start(0)
	ctl.Start(0) // second start must not double the tick cadence
	r.eng.RunUntil(10 * sim.Microsecond)
	// 2us interval over 10us: ~5-6 ticks; a doubled loop would show ~11.
	// The throttle integrator's update count isn't exposed, so assert via
	// engine events indirectly: just ensure the run completes and the gap is
	// sane.
	if gap := ctl.GapNanos(); gap > 1 { // base gap is 0.3 ns
		t.Fatalf("unexpected throttle %.1f", gap)
	}
}
