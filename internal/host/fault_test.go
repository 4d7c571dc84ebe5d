package host

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/numa"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// faultAudit is the strictest auditor setting: check after every event and
// panic on the first violation, so any credit leak inside a fault window
// fails the test at the exact event that caused it.
func faultAudit() audit.Config {
	return audit.Config{Enabled: true, Every: 1, FailFast: true}
}

// TestFaultSingleHostAllKinds drives every single-socket fault kind through
// overlapping windows on one audited host: PFC storm and link flap land on
// the NIC-free host's DRAM/IIO siblings, so this covers throttle, bank
// offline, and credit starvation with C2M + P2M traffic in flight.
func TestFaultSingleHostAllKinds(t *testing.T) {
	cfg := CascadeLake()
	cfg.Audit = faultAudit()
	cfg.Faults = fault.Schedule{
		{Kind: fault.DRAMThrottle, StartNs: 4000, DurationNs: 12000, Magnitude: 8, Channel: 0},
		{Kind: fault.DRAMThrottle, StartNs: 6000, DurationNs: 6000, Magnitude: 3, Channel: 1},
		{Kind: fault.BankOffline, StartNs: 5000, DurationNs: 15000, Channel: 0, Bank: 2},
		{Kind: fault.IIOStarve, StartNs: 7000, DurationNs: 9000, Magnitude: 0.9},
	}
	h := New(cfg)
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.AddCore(workload.NewSeqReadWrite(h.Region(1<<30), 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(2*sim.Microsecond, 25*sim.Microsecond)
	if h.Faults == nil {
		t.Fatal("fault schedule configured but no injector built")
	}
	if h.P2MBW() <= 0 {
		t.Fatal("P2M traffic did not survive the fault windows")
	}
}

// TestFaultDualSocketLaneDegrade degrades the UPI link while starving both
// sockets' IIO pools and throttling DRAM, with cross-socket traffic in both
// directions. Audits every event: the UPI link_busy and both sockets'
// credit-pool invariants must hold through the windows.
func TestFaultDualSocketLaneDegrade(t *testing.T) {
	cfg := CascadeLake()
	cfg.Audit = faultAudit()
	cfg.Faults = fault.Schedule{
		{Kind: fault.LaneDegrade, StartNs: 3000, DurationNs: 10000, Magnitude: 8},
		{Kind: fault.IIOStarve, StartNs: 4000, DurationNs: 9000, Magnitude: 0.9},
		{Kind: fault.DRAMThrottle, StartNs: 5000, DurationNs: 8000, Magnitude: 16, Channel: 0},
	}
	h := NewDual(cfg, numa.DefaultConfig())
	h.AddCoreOn(0, workload.NewSeqRead(h.RegionOn(1, 1<<30), 1<<30))
	h.AddCoreOn(1, workload.NewSeqRead(h.RegionOn(0, 1<<30), 1<<30))
	h.AddStorageOn(0, periph.BulkConfig(periph.DMAWrite, h.RegionOn(0, 1<<30)))
	h.Run(2*sim.Microsecond, 20*sim.Microsecond)
	if h.C2MBW() <= 0 {
		t.Fatal("cross-socket traffic did not survive the fault windows")
	}
}

// TestFaultCXLLaneDegrade degrades the CXL serialization rate while the
// expander's own DRAM controller is throttled and a bank is offline, with
// both CXL-homed and local traffic running. The injector must reach the
// expander's controller (not just the host's) for the throttle to matter.
func TestFaultCXLLaneDegrade(t *testing.T) {
	cfg := CascadeLake()
	cfg.Audit = faultAudit()
	cfg.Faults = fault.Schedule{
		{Kind: fault.LaneDegrade, StartNs: 3000, DurationNs: 10000, Magnitude: 8},
		{Kind: fault.DRAMThrottle, StartNs: 5000, DurationNs: 8000, Magnitude: 16, Channel: 0},
		{Kind: fault.BankOffline, StartNs: 4000, DurationNs: 14000, Channel: 0, Bank: 3},
	}
	h := NewWithCXL(cfg, cxlDefault())
	h.AddCore(workload.NewSeqRead(h.CXLRegion(1<<30), 1<<30))
	h.AddCore(workload.NewSeqReadWrite(h.Region(1<<30), 1<<30))
	h.Run(2*sim.Microsecond, 20*sim.Microsecond)
	if h.C2MBW() <= 0 {
		t.Fatal("traffic did not survive the fault windows")
	}
}

// TestFaultStarveFullMagnitude pins the starvation clamp: magnitude 1.0
// must leave one credit in each pool (full confiscation would deadlock the
// host rather than degrade it), so forward progress continues.
func TestFaultStarveFullMagnitude(t *testing.T) {
	cfg := CascadeLake()
	cfg.Audit = faultAudit()
	cfg.Faults = fault.Schedule{
		{Kind: fault.IIOStarve, StartNs: 3000, DurationNs: 10000, Magnitude: 1.0},
	}
	h := New(cfg)
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(2*sim.Microsecond, 20*sim.Microsecond)
	if h.P2MBW() <= 0 {
		t.Fatal("magnitude-1.0 starvation deadlocked the IIO (clamp to cap-1 broken)")
	}
	nw, nr := h.IIO.FaultCreditsHeld()
	if nw != 0 || nr != 0 {
		t.Fatalf("credits still held after window end: write=%d read=%d", nw, nr)
	}
}

// TestFaultNilInjectorZeroCost pins the healthy-path contract: an empty
// fault schedule yields a nil injector and the host behaves identically to
// one built with no Faults field at all.
func TestFaultNilInjectorZeroCost(t *testing.T) {
	cfg := CascadeLake()
	cfg.Faults = fault.Schedule{}
	h := New(cfg)
	if h.Faults != nil {
		t.Fatal("empty schedule must yield a nil injector")
	}
	// All injector methods must be nil-safe.
	h.Faults.Start()
	h.Faults.AttachDRAM(nil)
	h.Faults.AttachIIO(nil)
	h.Faults.AttachNIC(nil)
	h.Faults.AttachLink(nil)
	if h.Faults.Active() != 0 {
		t.Fatal("nil injector reports active windows")
	}
	if h.Faults.Schedule() != nil {
		t.Fatal("nil injector reports a schedule")
	}
}

// BenchmarkEventHotPathNoFaults gates the healthy hot path: with no faults
// configured the injector is nil and stepping the engine through a loaded
// host must not allocate. CI asserts 0 allocs/op and 0 B/op on this
// benchmark, so the warm-up must leave the request free lists at their
// peak: at 2 µs they still grow, which reads as 2 B/op.
func BenchmarkEventHotPathNoFaults(b *testing.B) {
	h := New(CascadeLake())
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Eng.RunUntil(10 * sim.Microsecond) // fill the pipeline and the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !h.Eng.Step() {
			b.Fatal("engine ran dry")
		}
	}
}
