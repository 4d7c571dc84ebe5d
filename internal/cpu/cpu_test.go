package cpu

import (
	"testing"

	"repro/internal/cha"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

func testRig() (*sim.Engine, *cha.CHA) {
	eng := sim.New()
	mapper := mem.MustMapper(mem.MapperConfig{Channels: 1, Banks: 16, RowBytes: 8192})
	mcCfg := dram.DefaultConfig()
	mcCfg.Timing = dram.Timing{
		TTrans: 3 * sim.Nanosecond, TRCD: 15 * sim.Nanosecond, TRP: 15 * sim.Nanosecond,
		TCL: 15 * sim.Nanosecond, TWTR: 8 * sim.Nanosecond, TRTW: 6 * sim.Nanosecond,
	}
	mc := dram.New(eng, mcCfg, mapper, nil)
	return eng, cha.New(eng, cha.DefaultConfig(), mc, nil)
}

// fixedGen serves a fixed list of accesses, then blocks forever.
type fixedGen struct {
	accs []Access
	pos  int
	done []Access
}

func (g *fixedGen) Poll(now sim.Time) (Access, sim.Time, bool) {
	if g.pos >= len(g.accs) {
		return Access{}, 0, false
	}
	a := g.accs[g.pos]
	g.pos++
	return a, now, true
}

func (g *fixedGen) OnComplete(a Access, now sim.Time) { g.done = append(g.done, a) }

// delayGen produces one access every gap.
type delayGen struct {
	gap   sim.Time
	next  sim.Time
	count int
	limit int
}

func (g *delayGen) Poll(now sim.Time) (Access, sim.Time, bool) {
	if g.count >= g.limit {
		return Access{}, 0, false
	}
	if g.next > now {
		return Access{}, g.next, true
	}
	g.count++
	g.next = now + g.gap
	return Access{Addr: mem.Addr(g.count * mem.LineSize), Kind: mem.Read}, now, true
}

func (g *delayGen) OnComplete(Access, sim.Time) {}

func TestCoreCompletesAllAccesses(t *testing.T) {
	eng, ch := testRig()
	gen := &fixedGen{}
	for i := 0; i < 50; i++ {
		gen.accs = append(gen.accs, Access{Addr: mem.Addr(i * mem.LineSize), Kind: mem.Read})
	}
	c := New(eng, DefaultConfig(), 0, ch, gen)
	c.Start(0)
	eng.Run()
	if len(gen.done) != 50 {
		t.Fatalf("completed %d of 50", len(gen.done))
	}
	if c.Stats().LinesRead.Count() != 50 {
		t.Fatalf("LinesRead = %d", c.Stats().LinesRead.Count())
	}
}

func TestLFBCreditLimit(t *testing.T) {
	eng, ch := testRig()
	gen := &fixedGen{}
	for i := 0; i < 200; i++ {
		gen.accs = append(gen.accs, Access{Addr: mem.Addr(i * mem.LineSize), Kind: mem.Read})
	}
	cfg := DefaultConfig()
	cfg.LFBEntries = 5
	c := New(eng, cfg, 0, ch, gen)
	c.Start(0)
	eng.Run()
	if max := c.Stats().LFBLat.Occ.Max(); max != 5 {
		t.Fatalf("LFB occupancy max = %d, want 5", max)
	}
	if c.Stats().LFBLat.Occ.Level() != 0 {
		t.Fatalf("LFB did not drain")
	}
}

func TestMemoryBoundCoreSaturatesCredits(t *testing.T) {
	eng, ch := testRig()
	gen := &fixedGen{}
	for i := 0; i < 5000; i++ {
		gen.accs = append(gen.accs, Access{Addr: mem.Addr(i * mem.LineSize), Kind: mem.Read})
	}
	c := New(eng, DefaultConfig(), 0, ch, gen)
	c.Start(0)
	eng.RunUntil(20 * sim.Microsecond)
	// §5.1: a memory-bound core keeps essentially all credits in flight.
	if avg := c.Stats().LFBLat.Occ.Avg(); avg < 11 {
		t.Fatalf("average LFB occupancy %.1f, want ~12 (fully utilized)", avg)
	}
}

func TestComputeBoundCoreLeavesCreditsIdle(t *testing.T) {
	eng, ch := testRig()
	gen := &delayGen{gap: 500 * sim.Nanosecond, limit: 50}
	c := New(eng, DefaultConfig(), 0, ch, gen)
	c.Start(0)
	eng.Run()
	// One access per 500ns with ~80ns latency: occupancy stays low.
	if avg := c.Stats().LFBLat.Occ.Avg(); avg > 1 {
		t.Fatalf("compute-bound occupancy %.2f, want < 1", avg)
	}
	if gen.count != 50 {
		t.Fatalf("issued %d of 50", gen.count)
	}
}

func TestWriteCreditReleasedAtCHA(t *testing.T) {
	eng, ch := testRig()
	gen := &fixedGen{accs: []Access{{Addr: 0, Kind: mem.Write}}}
	c := New(eng, DefaultConfig(), 0, ch, gen)
	c.Start(0)
	eng.Run()
	// C2M-Write domain: ToCHA (8) + admission; ~8-10ns, far below a read's ~78.
	wlat := c.Stats().WriteLat.AvgNanos()
	if wlat < 5 || wlat > 15 {
		t.Fatalf("write LFB latency %.1f ns, want ~8-10", wlat)
	}
	if c.Stats().LinesWritten.Count() != 1 {
		t.Fatalf("LinesWritten = %d", c.Stats().LinesWritten.Count())
	}
}

func TestReadVsWriteLatencySplit(t *testing.T) {
	eng, ch := testRig()
	gen := &fixedGen{}
	for i := 0; i < 20; i++ {
		k := mem.Read
		if i%2 == 1 {
			k = mem.Write
		}
		gen.accs = append(gen.accs, Access{Addr: mem.Addr(i * mem.LineSize), Kind: k})
	}
	c := New(eng, DefaultConfig(), 0, ch, gen)
	c.Start(0)
	eng.Run()
	st := c.Stats()
	if st.ReadLat.AvgNanos() <= st.WriteLat.AvgNanos() {
		t.Fatalf("read latency (%.1f) should exceed write latency (%.1f): reads span to DRAM, writes end at the CHA",
			st.ReadLat.AvgNanos(), st.WriteLat.AvgNanos())
	}
}

func TestIssueGapPacesIssue(t *testing.T) {
	eng, ch := testRig()
	gen := &fixedGen{}
	for i := 0; i < 10; i++ {
		gen.accs = append(gen.accs, Access{Addr: mem.Addr(i * mem.LineSize), Kind: mem.Read})
	}
	cfg := DefaultConfig()
	cfg.IssueGap = 50 * sim.Nanosecond
	c := New(eng, cfg, 0, ch, gen)
	c.Start(0)
	eng.Run()
	// 10 issues spaced 50ns: the run must extend past 450ns.
	if eng.Now() < 450*sim.Nanosecond {
		t.Fatalf("run ended at %v; issue gap not respected", eng.Now())
	}
}

func TestStartDelay(t *testing.T) {
	eng, ch := testRig()
	gen := &fixedGen{accs: []Access{{Addr: 0, Kind: mem.Read}}}
	c := New(eng, DefaultConfig(), 0, ch, gen)
	c.Start(1 * sim.Microsecond)
	eng.Run()
	if len(gen.done) != 1 {
		t.Fatalf("access did not complete")
	}
	if eng.Now() < 1*sim.Microsecond {
		t.Fatalf("core started before Start time")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	eng, ch := testRig()
	defer func() {
		if recover() == nil {
			t.Fatalf("zero LFB entries did not panic")
		}
	}()
	New(eng, Config{LFBEntries: 0}, 0, ch, &fixedGen{})
}

func TestStatsReset(t *testing.T) {
	eng, ch := testRig()
	gen := &fixedGen{accs: []Access{{Addr: 0, Kind: mem.Read}}}
	c := New(eng, DefaultConfig(), 0, ch, gen)
	c.Start(0)
	eng.Run()
	c.Stats().Reset()
	if c.Stats().LinesRead.Count() != 0 || c.Stats().LFBLat.Arr.Count() != 0 {
		t.Fatalf("reset incomplete")
	}
}
