package cha

import (
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

func testTiming() dram.Timing {
	return dram.Timing{
		TTrans: 3 * sim.Nanosecond,
		TRCD:   15 * sim.Nanosecond,
		TRP:    15 * sim.Nanosecond,
		TCL:    15 * sim.Nanosecond,
		TWTR:   8 * sim.Nanosecond,
		TRTW:   6 * sim.Nanosecond,
	}
}

type rig struct {
	eng *sim.Engine
	mc  *dram.Controller
	cha *CHA
}

func newRig(mcCfg dram.Config, chaCfg Config, ddio *cache.DDIO) *rig {
	eng := sim.New()
	mapper := mem.MustMapper(mem.MapperConfig{Channels: 1, Banks: 16, RowBytes: 8192})
	mc := dram.New(eng, mcCfg, mapper, nil)
	c := New(eng, chaCfg, mc, ddio)
	return &rig{eng: eng, mc: mc, cha: c}
}

func defaultRig() *rig {
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	return newRig(mcCfg, DefaultConfig(), nil)
}

func req(addr mem.Addr, k mem.Kind, s mem.Source, at sim.Time) *mem.Request {
	return &mem.Request{Addr: addr, Kind: k, Source: s, TAlloc: at}
}

func TestC2MReadEndToEndLatency(t *testing.T) {
	r := defaultRig()
	var done sim.Time = -1
	rd := req(0, mem.Read, mem.C2M, 0)
	rd.Done = func(*mem.Request) { done = r.eng.Now() }
	r.eng.AtFunc(0, func(any) { r.cha.Submit(rd) }, nil)
	r.eng.Run()
	// Proc 2 + ToMC 5 + (ACT 15 + CAS 15 + burst 3) + FromMC 20 + ToCore 18 = 78.
	if done != 78*sim.Nanosecond {
		t.Fatalf("read Done at %v, want 78ns", done)
	}
}

func TestC2MWriteDoneAtAdmission(t *testing.T) {
	r := defaultRig()
	var done sim.Time = -1
	wr := req(0, mem.Write, mem.C2M, 0)
	wr.Done = func(*mem.Request) { done = r.eng.Now() }
	r.eng.AtFunc(10*sim.Nanosecond, func(any) { r.cha.Submit(wr) }, nil)
	r.eng.Run()
	// Admission is immediate when entries are free: Done at submit time.
	if done != 10*sim.Nanosecond {
		t.Fatalf("C2M write Done at %v, want 10ns (admission)", done)
	}
}

func TestP2MWriteDoneAtWPQAdmission(t *testing.T) {
	r := defaultRig()
	var done sim.Time = -1
	wr := req(0, mem.Write, mem.P2M, 0)
	wr.Done = func(*mem.Request) { done = r.eng.Now() }
	r.eng.AtFunc(0, func(any) { r.cha.Submit(wr) }, nil)
	r.eng.Run()
	// Proc 2 + ToMC 5, WPQ has space: Done at 7ns — later than a C2M write
	// but far earlier than the DRAM write itself completes.
	if done != 7*sim.Nanosecond {
		t.Fatalf("P2M write Done at %v, want 7ns", done)
	}
}

func TestP2MWriteBlockedByFullWPQ(t *testing.T) {
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	mcCfg.WPQCap = 2
	mcCfg.WPQHigh = 2
	mcCfg.DrainBatch = 2
	r := newRig(mcCfg, DefaultConfig(), nil)
	var doneTimes []sim.Time
	r.eng.AtFunc(0, func(any) {
		for i := 0; i < 6; i++ {
			wr := req(mem.Addr(i)*mem.LineSize, mem.Write, mem.P2M, 0)
			wr.Done = func(*mem.Request) { doneTimes = append(doneTimes, r.eng.Now()) }
			r.cha.Submit(wr)
		}
	}, nil)
	r.eng.Run()
	if len(doneTimes) != 6 {
		t.Fatalf("completed %d of 6", len(doneTimes))
	}
	// First two admit at 7ns; the rest must wait for WPQ drains.
	if doneTimes[1] != 7*sim.Nanosecond {
		t.Fatalf("second write done at %v", doneTimes[1])
	}
	if doneTimes[2] <= 7*sim.Nanosecond {
		t.Fatalf("third write not backpressured: done at %v", doneTimes[2])
	}
	for i := 1; i < len(doneTimes); i++ {
		if doneTimes[i] < doneTimes[i-1] {
			t.Fatalf("P2M write completions out of order: %v", doneTimes)
		}
	}
}

func TestWriteEntriesExhaustionStallsIngress(t *testing.T) {
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	mcCfg.WPQCap = 2
	mcCfg.WPQHigh = 2
	mcCfg.DrainBatch = 2
	chaCfg := DefaultConfig()
	chaCfg.WriteEntries = 2
	r := newRig(mcCfg, chaCfg, nil)
	var readDone sim.Time = -1
	r.eng.AtFunc(0, func(any) {
		// 2 in WPQ + 2 in CHA write entries, then more writes to clog the
		// ingress, then a read behind them.
		for i := 0; i < 8; i++ {
			r.cha.Submit(req(mem.Addr(i)*mem.LineSize, mem.Write, mem.P2M, 0))
		}
		rd := req(4096, mem.Read, mem.C2M, 0)
		rd.Done = func(*mem.Request) { readDone = r.eng.Now() }
		r.cha.Submit(rd)
	}, nil)
	r.eng.Run()
	if readDone < 0 {
		t.Fatalf("read never completed")
	}
	// Unblocked read latency is 78ns; behind a stalled write ingress it must
	// be substantially later.
	if readDone < 100*sim.Nanosecond {
		t.Fatalf("read at %v was not delayed by ingress stall", readDone)
	}
	if r.cha.Stats().AdmitLat.AvgNanos() <= 0 {
		t.Fatalf("admission delay probe did not register")
	}
}

func TestReadRetryOnFullRPQ(t *testing.T) {
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	mcCfg.RPQCap = 2
	r := newRig(mcCfg, DefaultConfig(), nil)
	done := 0
	r.eng.AtFunc(0, func(any) {
		for i := 0; i < 20; i++ {
			rd := req(mem.Addr(i)*mem.LineSize, mem.Read, mem.C2M, 0)
			rd.Done = func(*mem.Request) { done++ }
			r.cha.Submit(rd)
		}
	}, nil)
	r.eng.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20 with a tiny RPQ", done)
	}
}

func TestDDIOReadHitAvoidsMemory(t *testing.T) {
	ddio := cache.NewDDIO(cache.DDIOConfig{Enabled: true, Sets: 64, Ways: 2})
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	r := newRig(mcCfg, DefaultConfig(), ddio)
	var rdDone sim.Time = -1
	wr := req(0x1000, mem.Write, mem.P2M, 0)
	rd := req(0x1000, mem.Read, mem.P2M, 0)
	rd.Done = func(*mem.Request) { rdDone = r.eng.Now() }
	r.eng.AtFunc(0, func(any) { r.cha.Submit(wr) }, nil)
	r.eng.AtFunc(100*sim.Nanosecond, func(any) { r.cha.Submit(rd) }, nil)
	r.eng.Run()
	// Proc 2 + LLC hit 20 + ToIIO 18 = 40ns after submit.
	if rdDone != 140*sim.Nanosecond {
		t.Fatalf("DDIO read hit done at %v, want 140ns", rdDone)
	}
	if got := r.mc.Stats().LinesRead(); got != 0 {
		t.Fatalf("DDIO hit still read %d lines from memory", got)
	}
	if r.cha.Stats().DDIOHits.Count() != 1 {
		t.Fatalf("DDIO hit not counted")
	}
}

func TestDDIOWriteCompletesAtLLCAndEvicts(t *testing.T) {
	ddio := cache.NewDDIO(cache.DDIOConfig{Enabled: true, Sets: 4, Ways: 2})
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	r := newRig(mcCfg, DefaultConfig(), ddio)
	completions := 0
	const n = 64
	r.eng.AtFunc(0, func(any) {
		for i := 0; i < n; i++ {
			wr := req(mem.Addr(i)*mem.LineSize, mem.Write, mem.P2M, 0)
			wr.Done = func(*mem.Request) { completions++ }
			r.cha.Submit(wr)
		}
	}, nil)
	r.eng.Run()
	if completions != n {
		t.Fatalf("completed %d of %d", completions, n)
	}
	// Thrashing: nearly one eviction writeback per write reaches memory.
	wbs := r.cha.Stats().DDIOWritebacks.Count()
	if wbs < n-8-1 {
		t.Fatalf("writebacks = %d, want close to %d", wbs, n)
	}
	if got := r.mc.Stats().P2MWrite.Lines.Count(); got != wbs {
		t.Fatalf("memory saw %d P2M writes, want %d writebacks", got, wbs)
	}
}

func TestC2MHitRatioBypassesMemory(t *testing.T) {
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	chaCfg := DefaultConfig()
	chaCfg.C2MHitRatio = 1.0
	r := newRig(mcCfg, chaCfg, nil)
	var done sim.Time = -1
	rd := req(0, mem.Read, mem.C2M, 0)
	rd.Done = func(*mem.Request) { done = r.eng.Now() }
	r.eng.AtFunc(0, func(any) { r.cha.Submit(rd) }, nil)
	r.eng.Run()
	// Proc 2 + LLC 20 + ToCore 18 = 40ns.
	if done != 40*sim.Nanosecond {
		t.Fatalf("LLC-hit read done at %v, want 40ns", done)
	}
	if r.mc.Stats().LinesRead() != 0 {
		t.Fatalf("hit still reached memory")
	}
	if r.cha.Stats().LLCHitsC2M.Count() != 1 {
		t.Fatalf("C2M LLC hit not counted")
	}
}

func TestP2MReadsInflightTracking(t *testing.T) {
	r := defaultRig()
	r.eng.AtFunc(0, func(any) {
		for i := 0; i < 5; i++ {
			r.cha.Submit(req(mem.Addr(i)*mem.LineSize, mem.Read, mem.P2M, 0))
		}
	}, nil)
	r.eng.Run()
	st := r.cha.Stats()
	if st.P2MReadsInflight.Max() != 5 {
		t.Fatalf("max P2M reads in flight = %d, want 5", st.P2MReadsInflight.Max())
	}
	if st.P2MReadsInflight.Level() != 0 {
		t.Fatalf("in-flight level did not drain to 0")
	}
}

func TestWBacklogIntegrator(t *testing.T) {
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	mcCfg.WPQCap = 2
	mcCfg.WPQHigh = 2
	mcCfg.DrainBatch = 2
	r := newRig(mcCfg, DefaultConfig(), nil)
	r.eng.AtFunc(0, func(any) {
		for i := 0; i < 10; i++ {
			r.cha.Submit(req(mem.Addr(i)*mem.LineSize, mem.Write, mem.P2M, 0))
		}
	}, nil)
	r.eng.Run()
	st := r.cha.Stats()
	if st.WBacklog.Max() < 4 {
		t.Fatalf("write backlog max = %d, want >= 4", st.WBacklog.Max())
	}
	if st.WBacklog.Level() != 0 {
		t.Fatalf("backlog did not drain")
	}
}

func TestWriteMCLatProbes(t *testing.T) {
	r := defaultRig()
	r.eng.AtFunc(0, func(any) {
		r.cha.Submit(req(0, mem.Write, mem.C2M, 0))
		r.cha.Submit(req(64, mem.Write, mem.P2M, 0))
	}, nil)
	r.eng.Run()
	st := r.cha.Stats()
	if st.WriteMCLat[mem.C2M].AvgNanos() <= 0 || st.WriteMCLat[mem.P2M].AvgNanos() <= 0 {
		t.Fatalf("write MC latency probes empty")
	}
}

func TestStatsReset(t *testing.T) {
	r := defaultRig()
	r.eng.AtFunc(0, func(any) { r.cha.Submit(req(0, mem.Read, mem.C2M, 0)) }, nil)
	r.eng.Run()
	st := r.cha.Stats()
	st.Reset()
	if st.AdmitLat.Arr.Count() != 0 || st.DDIOHits.Count() != 0 {
		t.Fatalf("reset incomplete")
	}
}

// backlogRig is a CHA over a two-channel controller whose WPQs hold two
// writes each, with the given P2M reserve.
func backlogRig(reserve int) *rig {
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = testTiming()
	mcCfg.WPQCap, mcCfg.WPQHigh, mcCfg.DrainBatch = 2, 2, 2
	mcCfg.WPQReserveP2M = reserve
	eng := sim.New()
	mapper := mem.MustMapper(mem.MapperConfig{Channels: 2, Banks: 16, RowBytes: 8192})
	mc := dram.New(eng, mcCfg, mapper, nil)
	return &rig{eng: eng, mc: mc, cha: New(eng, DefaultConfig(), mc, nil)}
}

// TestWriteBacklogDrainsPerChannel backlogs writes on both channels and
// checks that each channel admits its own writes in FIFO order, each one at
// the instant a burst on that channel frees a WPQ slot.
func TestWriteBacklogDrainsPerChannel(t *testing.T) {
	r := backlogRig(0)
	var lines [2][]*mem.Request // each channel's writes, in submission order
	for a := mem.Addr(0); len(lines[0]) < 5 || len(lines[1]) < 5; a += mem.LineSize {
		if ch := r.mc.ChannelOf(a); len(lines[ch]) < 5 {
			lines[ch] = append(lines[ch], req(a, mem.Write, mem.P2M, 0))
		}
	}
	var admitted [2][]*mem.Request
	r.eng.AtFunc(0, func(any) {
		for i := 0; i < 5; i++ {
			for ch := range lines {
				w := lines[ch][i]
				w.Done = func(*mem.Request) { admitted[ch] = append(admitted[ch], w) }
				r.cha.Submit(w)
			}
		}
	}, nil)
	r.eng.Run()
	arrive := 7 * sim.Nanosecond // ProcDelay + ToMC
	for ch := range lines {
		if len(admitted[ch]) != 5 {
			t.Fatalf("channel %d admitted %d of 5 writes", ch, len(admitted[ch]))
		}
		var bursts []sim.Time
		for _, w := range lines[ch] {
			bursts = append(bursts, w.TBurst)
		}
		sort.Slice(bursts, func(i, j int) bool { return bursts[i] < bursts[j] })
		for i, w := range admitted[ch] {
			if w != lines[ch][i] {
				t.Fatalf("channel %d admitted write %d out of FIFO order", ch, i)
			}
			want := arrive
			if i >= 2 {
				want = bursts[i-2] // the WPQ holds two: the (i-1)th burst frees a slot
			}
			if w.TMCEnq != want {
				t.Fatalf("channel %d write %d entered the WPQ at %v, want %v", ch, i, w.TMCEnq, want)
			}
		}
	}
	if got := r.cha.Stats().WBacklog.Level(); got != 0 {
		t.Fatalf("backlog gauge ends at %v, want 0", got)
	}
}

// TestP2MWritePassesBlockedC2MWrite checks that with a P2M reserve, a P2M
// write behind a C2M write blocked on the same channel enters the WPQ
// first.
func TestP2MWritePassesBlockedC2MWrite(t *testing.T) {
	r := backlogRig(1)
	var lines []mem.Addr // three lines on channel 0
	for a := mem.Addr(0); len(lines) < 3; a += mem.LineSize {
		if r.mc.ChannelOf(a) == 0 {
			lines = append(lines, a)
		}
	}
	first := req(lines[0], mem.Write, mem.C2M, 0)
	blocked := req(lines[1], mem.Write, mem.C2M, 0) // C2M may use one slot
	p2m := req(lines[2], mem.Write, mem.P2M, 0)     // the reserved slot
	r.eng.AtFunc(0, func(any) {
		r.cha.Submit(first)
		r.cha.Submit(blocked)
		r.cha.Submit(p2m)
	}, nil)
	r.eng.Run()
	arrive := 7 * sim.Nanosecond
	if first.TMCEnq != arrive || p2m.TMCEnq != arrive {
		t.Fatalf("WPQ entry at %v (C2M) and %v (P2M), want both at %v", first.TMCEnq, p2m.TMCEnq, arrive)
	}
	if blocked.TMCEnq <= arrive {
		t.Fatalf("blocked C2M write entered the WPQ at %v, not after the P2M write", blocked.TMCEnq)
	}
}
