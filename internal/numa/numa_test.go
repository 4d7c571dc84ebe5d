package numa

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// fakeCHA records submissions and completes them after a fixed latency.
type fakeCHA struct {
	eng     *sim.Engine
	latency sim.Time
	got     []*mem.Request
}

func (f *fakeCHA) Submit(r *mem.Request) {
	f.got = append(f.got, r)
	f.eng.AfterFunc(f.latency, func(any) {
		if r.Done != nil {
			r.Done(r)
		}
	}, nil)
}

func rig() (*sim.Engine, *Router, *fakeCHA, *fakeCHA) {
	eng := sim.New()
	c0 := &fakeCHA{eng: eng, latency: 30 * sim.Nanosecond}
	c1 := &fakeCHA{eng: eng, latency: 30 * sim.Nanosecond}
	r := New(eng, DefaultConfig(), c0, c1, func(a mem.Addr) int { return int(a >> 38 & 1) })
	return eng, r, c0, c1
}

func TestLocalBypassesLink(t *testing.T) {
	eng, r, c0, c1 := rig()
	var doneAt sim.Time = -1
	req := &mem.Request{Addr: 0, Kind: mem.Read}
	req.Done = func(*mem.Request) { doneAt = eng.Now() }
	eng.AtFunc(0, func(any) { r.Port(0).Submit(req) }, nil)
	eng.Run()
	if len(c0.got) != 1 || len(c1.got) != 0 {
		t.Fatalf("local request misrouted: c0=%d c1=%d", len(c0.got), len(c1.got))
	}
	if doneAt != 30*sim.Nanosecond {
		t.Fatalf("local done at %v, want 30ns (no UPI cost)", doneAt)
	}
	if r.Stats().RemoteReads.Count() != 0 {
		t.Fatalf("local request counted as remote")
	}
}

func TestRemoteReadRoundTrip(t *testing.T) {
	eng, r, c0, c1 := rig()
	var doneAt sim.Time = -1
	req := &mem.Request{Addr: 1 << 38, Kind: mem.Read}
	req.Done = func(*mem.Request) { doneAt = eng.Now() }
	eng.AtFunc(0, func(any) { r.Port(0).Submit(req) }, nil)
	eng.Run()
	if len(c1.got) != 1 || len(c0.got) != 0 {
		t.Fatalf("remote request misrouted")
	}
	// Request hop 40 + home service 30 + data serialization 3.2 + data hop
	// 40 = 113.2 ns.
	want := 40*sim.Nanosecond + 30*sim.Nanosecond + 3200*sim.Picosecond + 40*sim.Nanosecond
	if doneAt != want {
		t.Fatalf("remote read done at %v, want %v", doneAt, want)
	}
	if r.Stats().RemoteReads.Count() != 1 {
		t.Fatalf("remote read not counted")
	}
}

func TestRemoteWriteSerializesOutbound(t *testing.T) {
	eng, r, _, c1 := rig()
	// Two writes from socket 0 to socket 1 at the same instant: the second
	// arrives one line period later.
	times := map[int]sim.Time{}
	for i := 0; i < 2; i++ {
		i := i
		req := &mem.Request{Addr: 1 << 38, Kind: mem.Write}
		req.Done = func(*mem.Request) { times[i] = eng.Now() }
		eng.AtFunc(0, func(any) { r.Port(0).Submit(req) }, nil)
	}
	eng.Run()
	if len(c1.got) != 2 {
		t.Fatalf("writes lost: %d", len(c1.got))
	}
	if d := times[1] - times[0]; d != 3200*sim.Picosecond {
		t.Fatalf("outbound serialization gap %v, want one line period", d)
	}
	if r.Stats().RemoteWrites.Count() != 2 {
		t.Fatalf("remote writes not counted")
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	eng, r, c0, c1 := rig()
	done := 0
	for i := 0; i < 50; i++ {
		a := &mem.Request{Addr: 1 << 38, Kind: mem.Write}
		a.Done = func(*mem.Request) { done++ }
		b := &mem.Request{Addr: 0, Kind: mem.Write}
		b.Done = func(*mem.Request) { done++ }
		eng.AtFunc(0, func(any) { r.Port(0).Submit(a) }, nil) // 0 -> 1
		eng.AtFunc(0, func(any) { r.Port(1).Submit(b) }, nil) // 1 -> 0
	}
	eng.Run()
	if done != 100 {
		t.Fatalf("completed %d of 100", done)
	}
	if len(c0.got) != 50 || len(c1.got) != 50 {
		t.Fatalf("misrouted: c0=%d c1=%d", len(c0.got), len(c1.got))
	}
	// Both directions saw traffic.
	if r.Stats().LinkBusy[0].Frac() <= 0 || r.Stats().LinkBusy[1].Frac() <= 0 {
		t.Fatalf("direction busy fractions: %v %v",
			r.Stats().LinkBusy[0].Frac(), r.Stats().LinkBusy[1].Frac())
	}
}

func TestLinkThroughputBound(t *testing.T) {
	eng, r, _, c1 := rig()
	const n = 2000
	done := 0
	eng.AtFunc(0, func(any) {
		for i := 0; i < n; i++ {
			req := &mem.Request{Addr: 1 << 38, Kind: mem.Write}
			req.Done = func(*mem.Request) { done++ }
			r.Port(0).Submit(req)
		}
	}, nil)
	eng.Run()
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	// n lines serialized at 3.2 ns each: the last arrival at the home CHA
	// cannot be earlier than n * period.
	last := c1.got[len(c1.got)-1]
	if last.TCHAEnter != 0 {
		t.Fatalf("fake CHA does not stamp; inspect arrival through engine time instead")
	}
	if eng.Now() < sim.Time(n)*3200*sim.Picosecond {
		t.Fatalf("run finished before the link could have carried %d lines", n)
	}
}
