package audit

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// A nil auditor (auditing off) must accept every call as a no-op — that is
// the contract letting components register unconditionally.
func TestNilAuditorIsInert(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: false})
	if a != nil {
		t.Fatalf("New with Enabled=false = %v, want nil", a)
	}
	if a.Enabled() {
		t.Fatalf("nil auditor reports Enabled")
	}
	a.Check("d", "c", func() (bool, string) { t.Fatal("check ran on nil auditor"); return true, "" })
	a.Pool("d", "p", 4, func() int { t.Fatal("pool probe ran"); return 0 })
	a.Gauge("d", "g", telemetry.NewIntegrator(eng), func() int { return 0 })
	a.Bounds("d", "b", 0, 1, func() int64 { return 0 })
	a.Latency("d", "l", telemetry.NewLatency(eng))
	a.CheckNow()
	a.CheckEnd()
	if a.Violations() != nil || a.Report() != "" {
		t.Fatalf("nil auditor reported violations")
	}
}

func TestPoolConservation(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true})
	free := 3
	a.Pool("iio", "write_credits", 4, func() int { return free })
	a.CheckNow()
	if n := len(a.Violations()); n != 0 {
		t.Fatalf("clean pool flagged: %v", a.Violations())
	}
	free = 5 // over-released: free > capacity
	a.CheckNow()
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	v := vs[0]
	if v.Domain != "iio" || v.Counter != "write_credits" {
		t.Fatalf("attribution = %s/%s, want iio/write_credits", v.Domain, v.Counter)
	}
	if !strings.Contains(v.Detail, "over-released") {
		t.Fatalf("detail = %q, want over-released", v.Detail)
	}
	// Tripped checks stay quiet: no duplicate spam on later sweeps.
	a.CheckNow()
	a.CheckEnd()
	if len(a.Violations()) != 1 {
		t.Fatalf("tripped check re-fired: %v", a.Violations())
	}
}

func TestPoolOverAcquired(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true})
	a.Pool("cpu/core0", "lfb", 12, func() int { return -1 })
	a.CheckNow()
	vs := a.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "over-acquired") {
		t.Fatalf("violations = %v, want one over-acquired", vs)
	}
}

func TestGaugeDivergence(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true})
	probe := telemetry.NewIntegrator(eng)
	probe.Add(2)
	want := 2
	a.Gauge("dram", "rpq_occ", probe, func() int { return want })
	a.CheckNow()
	if len(a.Violations()) != 0 {
		t.Fatalf("agreeing gauge flagged: %v", a.Violations())
	}
	want = 3
	a.CheckNow()
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Counter != "rpq_occ" {
		t.Fatalf("violations = %v, want one rpq_occ divergence", vs)
	}
}

func TestBounds(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true})
	v := int64(5)
	a.Bounds("rdma", "queue", 0, 8, func() int64 { return v })
	a.CheckNow()
	v = 9
	a.CheckNow()
	if vs := a.Violations(); len(vs) != 1 || !strings.Contains(vs[0].Detail, "outside") {
		t.Fatalf("violations = %v, want one out-of-bounds", vs)
	}
}

// The violation timestamp must be the simulated time of detection.
func TestViolationTimestamp(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true})
	broken := false
	a.Check("numa", "link_busy_dir0", func() (bool, string) {
		if broken {
			return false, "stuck busy"
		}
		return true, ""
	})
	eng.AtFunc(40*sim.Nanosecond, func(any) { broken = true; a.CheckNow() }, nil)
	eng.Run()
	vs := a.Violations()
	if len(vs) != 1 || vs[0].At != 40*sim.Nanosecond {
		t.Fatalf("violations = %v, want one at 40ns", vs)
	}
	if got := vs[0].String(); !strings.Contains(got, "numa/link_busy_dir0 at 40.000ns") {
		t.Fatalf("String() = %q", got)
	}
}

func TestFailFastPanics(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true, FailFast: true})
	a.Pool("iio", "read_credits", 2, func() int { return -1 })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("fail-fast violation did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "iio/read_credits") {
			t.Fatalf("panic = %v, want message naming iio/read_credits", r)
		}
	}()
	a.CheckNow()
}

// The engine hook must evaluate invariants every cfg.Every events — and only
// then, so a tight cadence is a deliberate (costly) choice.
func TestEventCadence(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true, Every: 4})
	evals := 0
	a.Check("d", "c", func() (bool, string) { evals++; return true, "" })
	for i := 1; i <= 10; i++ {
		eng.AtFunc(sim.Time(i), func(any) {}, nil)
	}
	eng.Run()
	if evals != 2 { // after events 4 and 8
		t.Fatalf("check evaluated %d times over 10 events with Every=4, want 2", evals)
	}
}

// Balanced Enter/Exit streams must pass the Little's-law cross-check.
func TestLatencyCrossCheckAgrees(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true, MinSamples: 1})
	l := telemetry.NewLatency(eng)
	a.Latency("cha", "admit_lat", l)
	const d = 70 * sim.Nanosecond
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 10 * sim.Nanosecond
		eng.AtFunc(at, func(any) { l.Enter() }, nil)
		eng.AtFunc(at+d, func(any) { l.Exit() }, nil)
	}
	eng.Run()
	a.CheckEnd()
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("balanced stream flagged: %v", vs)
	}
	if n := l.DirectCount(); n != 100 {
		t.Fatalf("DirectCount = %d, want 100", n)
	}
}

// A leak — Enters that never Exit — inflates the Little's-law estimate
// without moving the direct average, which is exactly what the cross-check
// exists to catch. The leak is placed after the healthy traffic (a component
// wedging mid-run): the leaked requests accrue occupancy for the rest of the
// window while the direct sampler, which only sees completed requests, keeps
// reporting the true 10 ns.
func TestLatencyCrossCheckCatchesLeak(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true, MinSamples: 1})
	l := telemetry.NewLatency(eng)
	a.Latency("iio", "write_lat", l)
	const d = 10 * sim.Nanosecond
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 20 * sim.Nanosecond
		eng.AtFunc(at, func(any) { l.Enter() }, nil)
		eng.AtFunc(at+d, func(any) { l.Exit() }, nil)
	}
	// The leak: 50 requests enter at 1 us and are never completed.
	eng.AtFunc(sim.Microsecond, func(any) {
		for i := 0; i < 50; i++ {
			l.Enter()
		}
	}, nil)
	eng.AtFunc(10*sim.Microsecond, func(any) {}, nil) // let the leaked occupancy accrue
	eng.Run()
	a.CheckEnd()
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Domain != "iio" || vs[0].Counter != "write_lat" {
		t.Fatalf("violations = %v, want one iio/write_lat disagreement", vs)
	}
	if !strings.Contains(vs[0].Detail, "disagrees with direct sampling") {
		t.Fatalf("detail = %q", vs[0].Detail)
	}
	// CheckEnd is idempotent per window: a second anchor (host.Run plus
	// snapshot) must not duplicate the record.
	a.CheckEnd()
	if len(a.Violations()) != 1 {
		t.Fatalf("duplicate latency violation after second CheckEnd: %v", a.Violations())
	}
}

// A window holding occupancy but recording no arrivals has no defined O/R
// latency; the auditor must flag it rather than let NaN (or a silent zero)
// flow into figures.
func TestLatencyDegenerateWindow(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true, MinSamples: 1})
	l := telemetry.NewLatency(eng)
	a.Latency("cxl", "read_lat", l)
	eng.AtFunc(0, func(any) { l.Enter() }, nil)
	eng.AtFunc(10*sim.Nanosecond, func(any) { l.Reset() }, nil) // window starts: request in flight
	eng.AtFunc(50*sim.Nanosecond, func(any) { l.Exit() }, nil)
	eng.AtFunc(100*sim.Nanosecond, func(any) {}, nil)
	eng.Run()
	a.CheckEnd()
	vs := a.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "degenerate") {
		t.Fatalf("violations = %v, want one degenerate-window record", vs)
	}
}

func TestReportFormat(t *testing.T) {
	eng := sim.New()
	a := New(eng, Config{Enabled: true})
	a.Pool("a", "x", 1, func() int { return -1 })
	a.Pool("b", "y", 1, func() int { return 2 })
	a.CheckNow()
	rep := a.Report()
	if !strings.Contains(rep, "a/x at ") || !strings.Contains(rep, "b/y at ") {
		t.Fatalf("Report = %q", rep)
	}
	if got := strings.Count(rep, "\n"); got != 2 {
		t.Fatalf("Report has %d lines, want 2", got)
	}
}
