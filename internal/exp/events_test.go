package exp

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/sim"
)

// TestEventCountsPinned pins how many events a few fixed simulations
// execute at short windows: the four quadrant co-runs at 2 cores, the two
// RDMA co-runs at 2 cores, and a 4-host incast (3 senders) on one shared
// engine. Event counts are deterministic, so the comparison is exact. A
// change to the engine's scheduling structures must leave them alone, as it
// must leave every result byte; a change that cuts events updates these
// constants in the same commit.
func TestEventCountsPinned(t *testing.T) {
	opt := Defaults()
	opt.Warmup, opt.Window = 10*sim.Microsecond, 20*sim.Microsecond
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d events, want %d", name, got, want)
		}
	}
	for _, c := range []struct {
		q    Quadrant
		want uint64
	}{{Q1, 118123}, {Q2, 141637}, {Q3, 138153}, {Q4, 158318}} {
		h := host.New(opt.hostConfig())
		addC2MCores(h, c.q, 2)
		addP2MDevice(h, c.q)
		h.Run(opt.Warmup, opt.Window)
		check(c.q.String()+" co-run", h.Eng.Processed(), c.want)
	}
	for _, c := range []struct {
		q    Quadrant
		want uint64
	}{{Q1, 113788}, {Q2, 138971}} {
		h := host.New(opt.hostConfig())
		addC2MCores(h, c.q, 2)
		addRDMADevice(h, c.q)
		h.Eng.RunUntil(opt.Warmup + opt.Window)
		check(c.q.String()+" RDMA co-run", h.Eng.Processed(), c.want)
	}
	cfg := fabric.DefaultConfig(4)
	cfg.Host = opt.hostConfig()
	f := fabric.New(cfg)
	f.AddIncast(0, 3)
	addC2MCores(f.Hosts[0], Q3, 2)
	f.Run(opt.Warmup, opt.Window)
	check("4-host incast", f.Eng.Processed(), 167771)
}
