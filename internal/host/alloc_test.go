package host

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/cxl"
	"repro/internal/netsim"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// loadedHost runs every request path a single host has at once: C2M read
// and write cores, DMA-read and DMA-write storage, and an RDMA reader.
func loadedHost(cfg Config) *Host {
	h := New(cfg)
	for i := 0; i < 2; i++ {
		h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
		h.AddCore(workload.NewSeqReadWrite(h.Region(1<<30), 1<<30))
	}
	h.AddStorage(periph.BulkConfig(periph.DMARead, h.Region(1<<30)))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	nic := netsim.NewRDMARead(h.Eng, netsim.DefaultRDMAWriteConfig(h.Region(1<<30)), h.IIO)
	nic.Start(0)
	return h
}

// dctcpHost receives DCTCP flows, each copied out by a core of its own,
// beside a C2M read core.
func dctcpHost() *Host {
	h := New(CascadeLake())
	rx := netsim.NewDCTCPReceiver(h.Eng, netsim.DefaultDCTCPConfig(h.Region(1<<30)), h.IIO)
	for i := 0; i < netsim.DefaultDCTCPConfig(0).Flows; i++ {
		rx.AttachCopier(i, h.AddCore(rx.Copier(i)))
	}
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	rx.Start(0)
	return h
}

// TestRequestPathAllocationFree pins the request ownership rule from the
// outside: once a host is warm, every request, completion argument,
// prefetch waiter list and packet comes from a free list, so simulating on
// allocates nothing.
func TestRequestPathAllocationFree(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Host
	}{
		{"CascadeLake", func() *Host { return loadedHost(CascadeLake()) }},
		{"IceLake-DDIO", func() *Host {
			cfg := IceLake()
			cfg.DDIO.Enabled = true
			return loadedHost(cfg)
		}},
		{"Prefetch", func() *Host {
			cfg := CascadeLake()
			cfg.Core.Prefetch = cpu.DefaultPrefetcher()
			return loadedHost(cfg)
		}},
		{"DCTCP", dctcpHost},
		{"CXL", func() *Host {
			h := NewWithCXL(CascadeLake(), cxl.DefaultConfig())
			h.AddCore(workload.NewSeqRead(h.CXLRegion(1<<30), 1<<30))
			h.AddCore(workload.NewSeqReadWrite(h.CXLRegion(1<<30), 1<<30))
			return h
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.build()
			// Free lists grow to the host's peak in-flight requests; DCTCP
			// needs a few round trips for its windows to settle.
			h.Eng.RunUntil(60 * sim.Microsecond)
			per := testing.AllocsPerRun(40, func() { h.Eng.RunUntil(h.Eng.Now() + sim.Microsecond) })
			if per != 0 {
				t.Fatalf("%v allocations per simulated µs after warm-up, want 0", per)
			}
		})
	}
}
