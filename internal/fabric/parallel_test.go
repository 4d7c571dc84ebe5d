package fabric

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// parRackConfig is a 3-host rack whose receiver also runs colocated C2M
// load, so both PFC directions fire: the 2-to-1 incast overruns the ToR
// egress (switch -> host TX pause), and the loaded receiver host slows its
// RX drain (host -> switch egress pause).
func parRackConfig() Config {
	cfg := DefaultConfig(3)
	// Tighter RX PFC thresholds so the receiver's backpressure asserts
	// within a short test window instead of after a 64 KB queue buildup.
	cfg.NIC.PauseHi = 256
	cfg.NIC.PauseLo = 64
	return cfg
}

func buildParRack() *Parallel {
	pf := NewParallel(parRackConfig())
	pf.AddIncast(0, 2)
	for i := 0; i < 4; i++ {
		base := pf.Hosts[0].Region(1 << 30)
		pf.Hosts[0].AddCore(workload.NewSeqReadWrite(base, 1<<30))
	}
	return pf
}

// rackProbe is the full observable fingerprint of a rack run: every NIC and
// switch probe the incast experiment reads, plus the raw conservation terms.
// Exact float64 equality across runs is the point.
type rackProbe struct {
	TxBW, TxPause, RxBW, RxPause []float64
	RxQueueOcc                   []float64
	SwInOcc, SwOutOcc, SwHoL     []float64
	Sent, Delivered, Dropped     []int64
	InFlight                     int64
	HostC2M                      []float64
}

func probeParRack(pf *Parallel) rackProbe {
	var p rackProbe
	for i, n := range pf.NICs {
		p.TxBW = append(p.TxBW, n.TxBytesPerSec())
		p.TxPause = append(p.TxPause, n.TxPauseFrac.Frac())
		p.RxBW = append(p.RxBW, n.RxBytesPerSec())
		p.RxPause = append(p.RxPause, n.RxPauseFrac.Frac())
		p.RxQueueOcc = append(p.RxQueueOcc, n.RxQueueOcc.Avg())
		p.Sent = append(p.Sent, n.sentTotal)
		p.Delivered = append(p.Delivered, n.deliveredTotal)
		p.Dropped = append(p.Dropped, n.dropTotal)
		p.SwInOcc = append(p.SwInOcc, pf.Switch.PortInOccAvg(i))
		p.SwOutOcc = append(p.SwOutOcc, pf.Switch.PortOutOccAvg(i))
		p.SwHoL = append(p.SwHoL, pf.Switch.PortHoLFrac(i))
	}
	p.InFlight = pf.InFlight()
	for _, h := range pf.Hosts {
		p.HostC2M = append(p.HostC2M, h.C2MBW())
	}
	return p
}

const (
	parWarm   = 5 * sim.Microsecond
	parWindow = 15 * sim.Microsecond
)

// TestParallelRackRepeatIdentity pins the conservative-DES determinism:
// two racks built from the same configuration produce bit-identical
// fingerprints, because each partition runs single-threaded within a round
// and barrier injection order is canonical.
func TestParallelRackRepeatIdentity(t *testing.T) {
	run := func() rackProbe {
		pf := buildParRack()
		pf.Run(parWarm, parWindow)
		if ok, detail := pf.Conservation(); !ok {
			t.Fatalf("conservation violated: %s", detail)
		}
		return probeParRack(pf)
	}
	want := run()
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Fatalf("repeat run diverged:\ngot  %+v\nwant %+v", got, want)
	}
	// The run must actually exercise both cross-partition pause directions,
	// or the identity above is vacuous for half the message kinds.
	if want.TxPause[1] == 0 && want.TxPause[2] == 0 {
		t.Fatalf("no sender was ever TX-paused; incast did not congest the ToR")
	}
	if want.RxPause[0] == 0 {
		t.Fatalf("receiver never asserted RX pause; colocated load did not back-pressure")
	}
}

// TestParallelMatchesSharedPhysics anchors the partitioned discretization to
// the shared-engine rack: line arrivals and pause assertions happen at the
// same absolute instants in both (pause flaps shorter than the pause delay
// are impossible at default thresholds), so windowed bandwidths agree
// closely. They are not bit-equal — same-instant cross-partition events
// order per-engine rather than by one global sequence — hence the tolerance.
func TestParallelMatchesSharedPhysics(t *testing.T) {
	shared := New(parRackConfig())
	shared.AddIncast(0, 2)
	for i := 0; i < 4; i++ {
		base := shared.Hosts[0].Region(1 << 30)
		shared.Hosts[0].AddCore(workload.NewSeqReadWrite(base, 1<<30))
	}
	shared.Run(parWarm, parWindow)

	part := buildParRack()
	part.Run(parWarm, parWindow)

	close := func(name string, a, b float64) {
		t.Helper()
		if b == 0 && a == 0 {
			return
		}
		if rel := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)); rel > 0.02 {
			t.Errorf("%s: shared %v vs partitioned %v (%.2f%% apart)", name, a, b, rel*100)
		}
	}
	for i := range shared.NICs {
		close("tx bw", shared.NICs[i].TxBytesPerSec(), part.NICs[i].TxBytesPerSec())
		close("rx bw", shared.NICs[i].RxBytesPerSec(), part.NICs[i].RxBytesPerSec())
	}
	if ok, detail := part.Conservation(); !ok {
		t.Fatalf("partitioned conservation violated: %s", detail)
	}
	if ok, detail := shared.Conservation(); !ok {
		t.Fatalf("shared conservation violated: %s", detail)
	}
}

// TestParallelRejectsFaults pins the documented constraint: fault injection
// needs a rack-wide observer, so the partitioned constructor refuses it.
func TestParallelRejectsFaults(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewParallel accepted a faulted config")
		}
	}()
	cfg := parRackConfig()
	cfg.Faults = fault.Schedule{{Kind: fault.PauseStorm, StartNs: 1000, DurationNs: 1000}}
	NewParallel(cfg)
}
