package dram

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// testTiming uses round numbers so expected latencies are easy to compute:
// row hit = 15 (CL) + 3 (burst), activate adds 15, precharge adds 15.
func testTiming() Timing {
	return Timing{
		TTrans: 3 * sim.Nanosecond,
		TRCD:   15 * sim.Nanosecond,
		TRP:    15 * sim.Nanosecond,
		TCL:    15 * sim.Nanosecond,
		TWTR:   8 * sim.Nanosecond,
		TRTW:   6 * sim.Nanosecond,
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Timing = testTiming()
	return cfg
}

// singleChannelMapper avoids channel interleaving so bank/row math is direct.
func singleChannelMapper() *mem.Mapper {
	return mem.MustMapper(mem.MapperConfig{Channels: 1, Banks: 16, RowBytes: 8192, XORRowIntoBank: false})
}

type fakeClient struct {
	reads []*mem.Request
	freed int
}

func (f *fakeClient) ReadComplete(r *mem.Request)  { f.reads = append(f.reads, r) }
func (f *fakeClient) WriteComplete(r *mem.Request) { f.freed++ }

func newRead(addr mem.Addr, src mem.Source) *mem.Request {
	return &mem.Request{Addr: addr, Kind: mem.Read, Source: src}
}

func newWrite(addr mem.Addr, src mem.Source) *mem.Request {
	return &mem.Request{Addr: addr, Kind: mem.Write, Source: src}
}

func TestSingleReadColdBankLatency(t *testing.T) {
	eng := sim.New()
	cl := &fakeClient{}
	c := New(eng, testConfig(), singleChannelMapper(), cl)
	r := newRead(0, mem.C2M)
	eng.AtFunc(0, func(any) {
		if !c.TryEnqueue(r) {
			t.Fatalf("enqueue failed")
		}
	}, nil)
	eng.Run()
	// Cold bank: ACT (15) + CAS (15) + burst (3) = 33 ns.
	want := 33 * sim.Nanosecond
	if len(cl.reads) != 1 || r.TBurst != want {
		t.Fatalf("TBurst = %v, want %v (reads=%d)", r.TBurst, want, len(cl.reads))
	}
	st := c.Stats()
	if st.C2MRead.Lines.Count() != 1 || st.C2MRead.ACTs.Count() != 1 || st.C2MRead.RowHits.Count() != 0 {
		t.Fatalf("kind stats wrong: %+v", st.C2MRead)
	}
}

func TestRowHitLatency(t *testing.T) {
	eng := sim.New()
	cl := &fakeClient{}
	c := New(eng, testConfig(), singleChannelMapper(), cl)
	r1 := newRead(0, mem.C2M)
	r2 := newRead(64, mem.C2M) // same row, next line
	eng.AtFunc(0, func(any) { c.TryEnqueue(r1) }, nil)
	eng.AtFunc(40*sim.Nanosecond, func(any) { c.TryEnqueue(r2) }, nil)
	eng.Run()
	// Row open: CAS (15) + burst (3) = 18 ns after enqueue.
	if got := r2.TBurst - r2.TMCEnq; got != 18*sim.Nanosecond {
		t.Fatalf("row-hit latency = %v, want 18ns", got)
	}
	if c.Stats().C2MRead.RowHits.Count() != 1 {
		t.Fatalf("row hit not counted")
	}
}

func TestRowConflictLatency(t *testing.T) {
	eng := sim.New()
	cl := &fakeClient{}
	m := singleChannelMapper()
	c := New(eng, testConfig(), m, cl)
	// Two addresses in the same bank, different rows: row stride with no XOR
	// is rowLines * banks * 64 bytes.
	conflict := mem.Addr(m.RowLines()*m.Banks()) * mem.LineSize
	r1 := newRead(0, mem.C2M)
	r2 := newRead(conflict, mem.C2M)
	eng.AtFunc(0, func(any) { c.TryEnqueue(r1) }, nil)
	eng.AtFunc(40*sim.Nanosecond, func(any) { c.TryEnqueue(r2) }, nil)
	eng.Run()
	// Conflict: PRE (15) + ACT (15) + CAS (15) + burst (3) = 48 ns.
	if got := r2.TBurst - r2.TMCEnq; got != 48*sim.Nanosecond {
		t.Fatalf("conflict latency = %v, want 48ns", got)
	}
	st := c.Stats()
	if st.C2MRead.PREConflict.Count() != 1 {
		t.Fatalf("conflict precharge not counted")
	}
	if got := st.C2MRead.RowMissRatio(); got != 1.0 {
		t.Fatalf("row miss ratio = %v, want 1", got)
	}
}

func TestSequentialReadsSaturateChannel(t *testing.T) {
	eng := sim.New()
	cl := &fakeClient{}
	c := New(eng, testConfig(), singleChannelMapper(), cl)
	const n = 64 // one row's worth: all hits after the first
	issued := 0
	var enqueue func(any)
	enqueue = func(any) {
		for issued < n {
			r := newRead(mem.Addr(issued)*mem.LineSize, mem.C2M)
			if !c.TryEnqueue(r) {
				eng.AfterFunc(10*sim.Nanosecond, enqueue, nil)
				return
			}
			issued++
		}
	}
	eng.AtFunc(0, enqueue, nil)
	eng.Run()
	if len(cl.reads) != n {
		t.Fatalf("completed %d of %d", len(cl.reads), n)
	}
	last := cl.reads[len(cl.reads)-1]
	// Steady state: one burst per TTrans. Total ~= ACT+CAS + n*TTrans.
	lower := sim.Time(n) * 3 * sim.Nanosecond
	upper := lower + 40*sim.Nanosecond
	if last.TBurst < lower || last.TBurst > upper {
		t.Fatalf("last burst at %v, want in [%v, %v]", last.TBurst, lower, upper)
	}
}

func TestRPQCapacity(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.RPQCap = 4
	c := New(eng, cfg, singleChannelMapper(), &fakeClient{})
	accepted := 0
	eng.AtFunc(0, func(any) {
		for i := 0; i < 10; i++ {
			if c.TryEnqueue(newRead(mem.Addr(i)*mem.LineSize, mem.C2M)) {
				accepted++
			}
		}
	}, nil)
	eng.RunUntil(0)
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4", accepted)
	}
}

func TestWPQCapacityAndFullTimer(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.WPQCap = 4
	cfg.WPQHigh = 3
	cfg.DrainBatch = 2
	cl := &fakeClient{}
	c := New(eng, cfg, singleChannelMapper(), cl)
	accepted := 0
	eng.AtFunc(0, func(any) {
		for i := 0; i < 10; i++ {
			if c.TryEnqueue(newWrite(mem.Addr(i)*mem.LineSize, mem.C2M)) {
				accepted++
			}
		}
		if !c.Stats().WPQFull.On() {
			t.Errorf("WPQ full condition not set")
		}
	}, nil)
	eng.Run()
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4", accepted)
	}
	if cl.freed != 4 {
		t.Fatalf("freed %d slots, want 4", cl.freed)
	}
	if c.Stats().WPQFull.On() {
		t.Fatalf("WPQ still marked full after drain")
	}
	if c.Stats().WPQFull.Frac() <= 0 {
		t.Fatalf("WPQ full fraction should be positive")
	}
}

func TestWriteDrainSwitchesModes(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.WPQHigh = 8
	cfg.DrainBatch = 4
	cl := &fakeClient{}
	c := New(eng, cfg, singleChannelMapper(), cl)
	// Continuous reads keep the channel in read mode until the WPQ crosses
	// its high watermark.
	acceptedReads, acceptedWrites := 0, 0
	for i := 0; i < 200; i++ {
		i := i
		eng.AtFunc(sim.Time(i)*3*sim.Nanosecond, func(any) {
			if c.TryEnqueue(newRead(mem.Addr(i)*mem.LineSize, mem.C2M)) {
				acceptedReads++
			}
		}, nil)
	}
	for i := 0; i < 20; i++ {
		i := i
		eng.AtFunc(sim.Time(i)*10*sim.Nanosecond, func(any) {
			if c.TryEnqueue(newWrite(mem.Addr(1<<20+i*mem.LineSize), mem.P2M)) {
				acceptedWrites++
			}
		}, nil)
	}
	eng.Run()
	st := c.Stats()
	if st.Switches.Count() < 2 {
		t.Fatalf("switches = %d, want >= 2 (one drain round trip)", st.Switches.Count())
	}
	if cl.freed != acceptedWrites || len(cl.reads) != acceptedReads {
		t.Fatalf("freed=%d/%d reads=%d/%d", cl.freed, acceptedWrites, len(cl.reads), acceptedReads)
	}
	if acceptedWrites < 15 || acceptedReads < 100 {
		t.Fatalf("controller rejected too much: reads=%d writes=%d", acceptedReads, acceptedWrites)
	}
	if st.P2MWrite.Lines.Count() != uint64(acceptedWrites) {
		t.Fatalf("P2M write lines = %d", st.P2MWrite.Lines.Count())
	}
}

func TestPureWriteWorkloadDrains(t *testing.T) {
	eng := sim.New()
	cl := &fakeClient{}
	c := New(eng, testConfig(), singleChannelMapper(), cl)
	eng.AtFunc(0, func(any) {
		for i := 0; i < 10; i++ {
			c.TryEnqueue(newWrite(mem.Addr(i)*mem.LineSize, mem.P2M))
		}
	}, nil)
	eng.Run()
	if cl.freed != 10 {
		t.Fatalf("pure write workload drained %d of 10", cl.freed)
	}
}

func TestReadLatencyLittlesLaw(t *testing.T) {
	eng := sim.New()
	cl := &fakeClient{}
	c := New(eng, testConfig(), singleChannelMapper(), cl)
	// Widely spaced single reads: latency = ACT+CAS+burst = 33ns each for
	// fresh banks; using the same row keeps it 18ns after the first.
	for i := 0; i < 50; i++ {
		i := i
		eng.AtFunc(sim.Time(i)*100*sim.Nanosecond, func(any) {
			c.TryEnqueue(newRead(mem.Addr(i)*mem.LineSize, mem.C2M))
		}, nil)
	}
	eng.Run()
	got := c.Stats().ReadLat.AvgNanos()
	// First read 33ns, rest 18ns => mean = (33 + 49*18)/50 = 18.3
	if math.Abs(got-18.3) > 0.5 {
		t.Fatalf("ReadLat = %v, want ~18.3", got)
	}
}

func TestBankDeviationSampling(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.BankSampleWindow = 100
	m := singleChannelMapper()
	c := New(eng, cfg, m, &fakeClient{})
	rowStride := mem.Addr(m.RowLines()) * mem.LineSize // next bank
	issued := 0
	var enqueue func(any)
	enqueue = func(any) {
		for issued < 400 {
			// Skewed load: 75% of requests to bank 0, rest spread.
			var a mem.Addr
			if issued%4 != 0 {
				a = mem.Addr(issued%64) * mem.LineSize
			} else {
				a = rowStride * mem.Addr(1+issued%8)
			}
			if !c.TryEnqueue(newRead(a, mem.C2M)) {
				eng.AfterFunc(30*sim.Nanosecond, enqueue, nil)
				return
			}
			issued++
		}
	}
	eng.AtFunc(0, enqueue, nil)
	eng.Run()
	s := c.Stats().BankDeviation
	if s.Len() != 4 {
		t.Fatalf("samples = %d, want 4", s.Len())
	}
	// 75 of 100 on one bank of 16 => deviation = 75/(100/16) = 12.
	if s.Mean() < 8 {
		t.Fatalf("deviation mean = %v, want >= 8 for a skewed load", s.Mean())
	}
}

func TestStatsReset(t *testing.T) {
	eng := sim.New()
	c := New(eng, testConfig(), singleChannelMapper(), &fakeClient{})
	eng.AtFunc(0, func(any) { c.TryEnqueue(newRead(0, mem.C2M)) }, nil)
	eng.Run()
	st := c.Stats()
	if st.LinesRead() != 1 {
		t.Fatalf("LinesRead = %d", st.LinesRead())
	}
	st.Reset()
	if st.LinesRead() != 0 || st.Switches.Count() != 0 || st.BankDeviation.Len() != 0 {
		t.Fatalf("reset did not clear counters")
	}
}

func TestChannelRouting(t *testing.T) {
	eng := sim.New()
	m := mem.MustMapper(mem.DefaultMapperConfig())
	c := New(eng, testConfig(), m, &fakeClient{})
	if c.Channels() != 2 {
		t.Fatalf("Channels = %d", c.Channels())
	}
	if c.ChannelOf(0) == c.ChannelOf(64) {
		t.Fatalf("adjacent lines should interleave channels")
	}
	if !c.WPQHasSpace(0) {
		t.Fatalf("fresh controller should have WPQ space")
	}
}

// Property: every enqueued request completes exactly once and queues drain
// to zero occupancy, for arbitrary interleavings of reads and writes.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		eng := sim.New()
		cl := &fakeClient{}
		c := New(eng, testConfig(), mem.MustMapper(mem.DefaultMapperConfig()), cl)
		enqueued := 0
		writes := 0
		eng.AtFunc(0, func(any) {
			for _, op := range ops {
				addr := mem.Addr(op) * mem.LineSize
				var r *mem.Request
				if op%3 == 0 {
					r = newWrite(addr, mem.Source(op%2))
					if c.TryEnqueue(r) {
						enqueued++
						writes++
					}
				} else {
					r = newRead(addr, mem.Source(op%2))
					if c.TryEnqueue(r) {
						enqueued++
					}
				}
			}
		}, nil)
		eng.Run()
		completed := len(cl.reads) + cl.freed
		if completed != enqueued {
			return false
		}
		st := c.Stats()
		return st.ReadLat.Occ.Level() == 0 && st.WPQOcc.Level() == 0 &&
			st.LinesRead()+st.LinesWritten() == uint64(enqueued)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FR-FCFS may serve row hits ahead of older conflicting requests, but among
// requests to the *same row* arrival order must be preserved, and everything
// must complete.
func TestSameRowFCFSProperty(t *testing.T) {
	eng := sim.New()
	cl := &fakeClient{}
	m := singleChannelMapper()
	c := New(eng, testConfig(), m, cl)
	// All requests to bank 0, alternating rows (even arrivals row 0, odd
	// row 1).
	rowStride := mem.Addr(m.RowLines()*m.Banks()) * mem.LineSize
	arrival := map[*mem.Request]int64{}
	eng.AtFunc(0, func(any) {
		for i := 0; i < 20; i++ {
			r := newRead(rowStride*mem.Addr(i%2)+mem.Addr(i)*mem.LineSize, mem.C2M)
			arrival[r] = int64(i)
			c.TryEnqueue(r)
		}
	}, nil)
	eng.Run()
	if len(cl.reads) != 20 {
		t.Fatalf("completed %d of 20", len(cl.reads))
	}
	var lastEven, lastOdd int64 = -1, -1
	for _, r := range cl.reads {
		id := arrival[r]
		if id%2 == 0 {
			if id < lastEven {
				t.Fatalf("same-row order violated for even ids")
			}
			lastEven = id
		} else {
			if id < lastOdd {
				t.Fatalf("same-row order violated for odd ids")
			}
			lastOdd = id
		}
	}
}

func TestTimingPresets(t *testing.T) {
	cas := DDR4_2933()
	ice := DDR4_3200()
	// Per-channel bandwidth = 64B / tTrans.
	bwCas := 64.0 / cas.TTrans.Seconds()
	bwIce := 64.0 / ice.TTrans.Seconds()
	if math.Abs(bwCas-23.4e9) > 0.2e9 {
		t.Fatalf("2933 channel bw = %v", bwCas)
	}
	if math.Abs(bwIce-25.6e9) > 0.2e9 {
		t.Fatalf("3200 channel bw = %v", bwIce)
	}
	// tProc = tRP + tRCD + tCL ~ 45ns for the Cascade Lake part.
	if got := cas.TRP + cas.TRCD + cas.TCL; got != 45*sim.Nanosecond {
		t.Fatalf("tProc = %v", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []Config{
		{Timing: testTiming(), RPQCap: 0, WPQCap: 4, WPQHigh: 3, DrainBatch: 1},
		{Timing: testTiming(), RPQCap: 4, WPQCap: 4, WPQHigh: 2, DrainBatch: 0},
		{Timing: testTiming(), RPQCap: 4, WPQCap: 4, WPQHigh: 8, DrainBatch: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(sim.New(), cfg, singleChannelMapper(), nil)
		}()
	}
}

func TestWPQReservationForP2M(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.WPQCap = 4
	cfg.WPQHigh = 4
	cfg.DrainBatch = 2
	cfg.WPQReserveP2M = 2
	c := New(eng, cfg, singleChannelMapper(), &fakeClient{})
	c2mAccepted, p2mAccepted := 0, 0
	eng.AtFunc(0, func(any) {
		// C2M writes may only use the unreserved half.
		for i := 0; i < 4; i++ {
			if c.TryEnqueue(newWrite(mem.Addr(i)*mem.LineSize, mem.C2M)) {
				c2mAccepted++
			}
		}
		// P2M writes can still use the reserved slots.
		for i := 0; i < 4; i++ {
			if c.TryEnqueue(newWrite(mem.Addr((10+i))*mem.LineSize, mem.P2M)) {
				p2mAccepted++
			}
		}
	}, nil)
	eng.RunUntil(0)
	if c2mAccepted != 2 {
		t.Fatalf("C2M writes accepted %d, want 2 (reservation)", c2mAccepted)
	}
	if p2mAccepted != 2 {
		t.Fatalf("P2M writes accepted %d, want 2 (remaining capacity)", p2mAccepted)
	}
}

func TestWPQReservationValidation(t *testing.T) {
	cfg := testConfig()
	cfg.WPQReserveP2M = cfg.WPQCap
	defer func() {
		if recover() == nil {
			t.Fatalf("reservation >= capacity did not panic")
		}
	}()
	New(sim.New(), cfg, singleChannelMapper(), nil)
}
