package host

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// finiteGen issues exactly n sequential reads and then stops forever.
type finiteGen struct {
	n    int
	pos  int
	base mem.Addr
}

func (g *finiteGen) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	if g.pos >= g.n {
		return cpu.Access{}, 0, false
	}
	a := g.base + mem.Addr(g.pos*mem.LineSize)
	g.pos++
	return cpu.Access{Addr: a, Kind: mem.Read}, now, true
}

func (g *finiteGen) OnComplete(cpu.Access, sim.Time) {}

// A workload that ends must quiesce the host: all in-flight requests drain,
// all credits return, and the event loop goes idle (no leaked periodic
// events besides device arming). This is the lost-wakeup / credit-leak net.
func TestFiniteWorkloadQuiesces(t *testing.T) {
	h := New(CascadeLake())
	gen := &finiteGen{n: 500}
	h.AddCore(gen)
	h.Eng.Run() // run to exhaustion: must terminate
	st := h.Cores[0].Stats()
	if st.LinesRead.Count() != 500 {
		t.Fatalf("completed %d of 500", st.LinesRead.Count())
	}
	if st.LFBLat.Occ.Level() != 0 {
		t.Fatalf("LFB credits leaked: %d", st.LFBLat.Occ.Level())
	}
	if h.MC.Stats().ReadLat.Occ.Level() != 0 || h.MC.Stats().WPQOcc.Level() != 0 {
		t.Fatalf("MC queues not drained")
	}
}

// Tiny queues everywhere: the system still makes progress (retry paths all
// work under extreme backpressure).
func TestTinyQueuesStillProgress(t *testing.T) {
	cfg := CascadeLake()
	cfg.MC.RPQCap = 2
	cfg.MC.WPQCap = 2
	cfg.MC.WPQHigh = 2
	cfg.MC.DrainBatch = 1
	cfg.CHA.ReadEntries = 4
	cfg.CHA.WriteEntries = 4
	cfg.IIO.WriteCredits = 4
	cfg.IIO.ReadCredits = 4
	h := New(cfg)
	h.AddCore(workload.NewSeqReadWrite(h.Region(1<<30), 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(10*sim.Microsecond, 30*sim.Microsecond)
	if h.C2MBW() <= 0 || h.P2MBW() <= 0 {
		t.Fatalf("starved under tiny queues: C2M %.2f P2M %.2f GB/s",
			h.C2MBW()/1e9, h.P2MBW()/1e9)
	}
}

// A one-line region: the device wraps on a single cacheline without stalling
// or corrupting accounting.
func TestDegenerateOneLineBuffer(t *testing.T) {
	h := New(CascadeLake())
	cfg := periph.Config{
		Dir: periph.DMAWrite, RequestBytes: 64, QueueDepth: 1,
		DeviceDelay: 100 * sim.Nanosecond, BufBase: h.Region(1 << 20), BufBytes: 64,
	}
	h.AddStorage(cfg)
	h.Run(10*sim.Microsecond, 20*sim.Microsecond)
	if h.Devices[0].Stats().Requests.Count() == 0 {
		t.Fatalf("one-line device made no progress")
	}
}

// Single-channel, single-bank extreme: pure serialization, still correct.
func TestSingleBankExtreme(t *testing.T) {
	cfg := CascadeLake()
	cfg.Mapper = mem.MapperConfig{Channels: 1, Banks: 1, RowBytes: 8192, XORRowIntoBank: false}
	h := New(cfg)
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.Run(10*sim.Microsecond, 30*sim.Microsecond)
	bw := h.C2MReadBW()
	// One channel caps at 23.4 GB/s; one core with 12 credits at ~70ns caps
	// lower. Must be positive and below the single-channel wire.
	if bw <= 0 || bw > 23.5e9 {
		t.Fatalf("single-bank bw %.2f GB/s out of range", bw/1e9)
	}
}

// Drain policy sanity under a pathological mix: many tiny write bursts with
// long idle gaps; MaxWriteAge must flush them all.
func TestWriteAgeFlushesStragglers(t *testing.T) {
	cfg := CascadeLake()
	h := New(cfg)
	// A single probe device sends 4KB every 10us: far below any watermark.
	h.AddStorage(periph.ProbeConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(50*sim.Microsecond, 200*sim.Microsecond)
	dev := h.Devices[0].Stats()
	if dev.Requests.Count() < 10 {
		t.Fatalf("probe requests stalled: %d", dev.Requests.Count())
	}
	if lvl := h.MC.Stats().WPQOcc.Level(); lvl > 64 {
		t.Fatalf("writes parked in the WPQ: %d", lvl)
	}
	_ = dram.DefaultConfig
}
