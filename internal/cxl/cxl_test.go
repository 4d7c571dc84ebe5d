package cxl

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestUnloadedReadLatency(t *testing.T) {
	eng := sim.New()
	e := New(eng, DefaultConfig())
	var done sim.Time = -1
	r := &mem.Request{Addr: 0, Kind: mem.Read, TAlloc: 0}
	r.Done = func(*mem.Request) { done = eng.Now() }
	eng.AtFunc(0, func(any) { e.Submit(r) }, nil)
	eng.Run()
	// link 85 + proc 10 + MC cold (~33 with default timing) + serialize 2 +
	// link 85 ~= 215 ns.
	if done < 190*sim.Nanosecond || done > 240*sim.Nanosecond {
		t.Fatalf("unloaded CXL read at %v, want ~215ns", done)
	}
	if e.Stats().Reads.Count() != 1 {
		t.Fatalf("read not counted")
	}
}

func TestWritePostedAtDevice(t *testing.T) {
	eng := sim.New()
	e := New(eng, DefaultConfig())
	var done sim.Time = -1
	r := &mem.Request{Addr: 0, Kind: mem.Write, TAlloc: 0}
	r.Done = func(*mem.Request) { done = eng.Now() }
	eng.AtFunc(0, func(any) { e.Submit(r) }, nil)
	eng.Run()
	// serialize 2 + link 85 + proc 10 + ack link 85 = 182 ns: completion does
	// not wait for DRAM.
	if done < 170*sim.Nanosecond || done > 195*sim.Nanosecond {
		t.Fatalf("posted write acked at %v, want ~182ns", done)
	}
	if e.Stats().Writes.Count() != 1 {
		t.Fatalf("write not counted")
	}
}

// TestPostedWriteReturnsToPool checks a posted write's two holders: the
// ack and the memory controller each drop a reference, in either order, and
// the write goes back to its pool once both have.
func TestPostedWriteReturnsToPool(t *testing.T) {
	dramFirst := DefaultConfig()
	dramFirst.MC.WPQOppEntry = 1 // an idle channel writes one line at once
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"DRAM first", dramFirst}, {"ack first", DefaultConfig()}} {
		name, cfg := tc.name, tc.cfg
		t.Run(name, func(t *testing.T) {
			eng := sim.New()
			e := New(eng, cfg)
			var pool mem.Pool
			r := pool.Get()
			r.Kind = mem.Write
			var acked, written sim.Time
			r.Done = func(*mem.Request) { acked, written = eng.Now(), r.TBurst }
			eng.AtFunc(0, func(any) { e.Submit(r) }, nil)
			eng.Run()
			if first := written != 0 && written < acked; first != (name == "DRAM first") {
				t.Fatalf("burst at %v, ack at %v: the order is not %s", written, acked, name)
			}
			if pool.Get() != r {
				t.Fatalf("posted write did not return to its pool")
			}
		})
	}
}

func TestLinkSerializesReads(t *testing.T) {
	eng := sim.New()
	e := New(eng, DefaultConfig())
	var doneTimes []sim.Time
	eng.AtFunc(0, func(any) {
		for i := 0; i < 4; i++ {
			r := &mem.Request{Addr: mem.Addr(i * mem.LineSize), Kind: mem.Read}
			r.Done = func(*mem.Request) { doneTimes = append(doneTimes, eng.Now()) }
			e.Submit(r)
		}
	}, nil)
	eng.Run()
	if len(doneTimes) != 4 {
		t.Fatalf("completed %d of 4", len(doneTimes))
	}
	// Return data serializes at one line period on the device->host link.
	for i := 1; i < len(doneTimes); i++ {
		if d := doneTimes[i] - doneTimes[i-1]; d < 2*sim.Nanosecond {
			t.Fatalf("return gap %v below one line period", d)
		}
	}
}

func TestBackpressureRetries(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.MC.RPQCap = 2
	e := New(eng, cfg)
	done := 0
	eng.AtFunc(0, func(any) {
		for i := 0; i < 30; i++ {
			r := &mem.Request{Addr: mem.Addr(i * mem.LineSize), Kind: mem.Read}
			r.Done = func(*mem.Request) { done++ }
			e.Submit(r)
		}
	}, nil)
	eng.Run()
	if done != 30 {
		t.Fatalf("completed %d of 30 under a tiny RPQ", done)
	}
}
