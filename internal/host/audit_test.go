package host

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A deliberately injected conservation bug — an IIO write credit released
// that was never acquired — must be detected and attributed to the right
// domain, counter, and simulated instant. This is the auditor's existence
// proof: the clean-run tests only show it stays quiet.
func TestAuditDetectsInjectedDoubleRelease(t *testing.T) {
	cfg := CascadeLake()
	// Every-event cadence so detection lands at the injecting event's
	// timestamp; no FailFast so we can inspect the record.
	cfg.Audit = audit.Config{Enabled: true, Every: 1}
	h := New(cfg)
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))

	const injectAt = 10 * sim.Microsecond
	h.Eng.AtFunc(injectAt, func(any) {
		// Well past any legitimate free count: capacity is double-released
		// even with every credit idle.
		for i := 0; i < 2*h.Cfg.IIO.WriteCredits; i++ {
			h.IIO.InjectDoubleRelease()
		}
	}, nil)
	h.Run(warm, win)

	vs := h.Auditor.Violations()
	if len(vs) == 0 {
		t.Fatalf("injected double release went undetected")
	}
	v := vs[0]
	if v.Domain != "iio" || v.Counter != "write_credits" {
		t.Fatalf("attribution = %s/%s, want iio/write_credits\nreport:\n%s",
			v.Domain, v.Counter, h.Auditor.Report())
	}
	if v.At != injectAt {
		t.Fatalf("detected at %v, want the injection instant %v", v.At, injectAt)
	}
	if !strings.Contains(v.Detail, "over-released") {
		t.Fatalf("detail = %q, want over-released", v.Detail)
	}
}

// A healthy colocated run — cores plus a bulk device, every domain loaded —
// must produce zero violations.
func TestAuditCleanOnColocatedRun(t *testing.T) {
	cfg := CascadeLake()
	cfg.Audit = audit.Config{Enabled: true, Every: 256}
	h := New(cfg)
	h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	h.AddCore(workload.NewSeqReadWrite(h.Region(1<<30), 1<<30))
	h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
	h.Run(warm, win)
	if vs := h.Auditor.Violations(); len(vs) != 0 {
		t.Fatalf("audit flagged a healthy run:\n%s", h.Auditor.Report())
	}
}

// Auditing is purely observational: it schedules no events and touches no
// simulator state, so an audited run and an unaudited run of the same
// scenario are bit-identical.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	run := func(audited bool) (float64, float64, uint64, sim.Time) {
		cfg := CascadeLake()
		cfg.Audit = audit.Config{Enabled: audited, Every: 64}
		h := New(cfg)
		h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
		h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
		h.Run(warm, win)
		if audited && len(h.Auditor.Violations()) != 0 {
			t.Fatalf("unexpected violations:\n%s", h.Auditor.Report())
		}
		return h.C2MBW(), h.P2MBW(), h.Eng.Processed(), h.Eng.Now()
	}
	c1, p1, e1, t1 := run(false)
	c2, p2, e2, t2 := run(true)
	if c1 != c2 || p1 != p2 || e1 != e2 || t1 != t2 {
		t.Fatalf("audit perturbed the simulation: off=(%v,%v,%v,%v) on=(%v,%v,%v,%v)",
			c1, p1, e1, t1, c2, p2, e2, t2)
	}
}
