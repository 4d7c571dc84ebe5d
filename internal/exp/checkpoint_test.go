package exp

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/cxl"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/hostcc"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The checkpoint property: running to any instant T, snapshotting, finishing
// the run, restoring, and finishing again must produce outputs byte-identical
// to a straight run that never snapshotted. Every divergence is a hidden-
// shared-state bug (a field outside the snapshot set, a closure capturing
// pre-snapshot state, a memo surviving restore).
//
// Each scenario builds its simulation from scratch and returns a finish
// function driving the absolute measurement schedule — finish is written
// against absolute times so it can resume from any mid-warmup instant.

type ckptRun struct {
	eng    *sim.Engine
	warmup sim.Time // snapshot instants are drawn from [0, warmup)
	finish func() any
}

type ckptScenario struct {
	name  string
	build func() ckptRun
}

const (
	ckptWarm   = 10 * sim.Microsecond
	ckptWindow = 20 * sim.Microsecond
)

// ckptOptions returns small, test-sized experiment options.
func ckptOptions(audit bool) Options {
	opt := Defaults()
	opt.Warmup = ckptWarm
	opt.Window = ckptWindow
	opt.Audit = audit
	return opt
}

// hostFinish drives a host through ResetStats-at-warmup measurement with
// absolute times and captures the full probe snapshot.
func hostFinish(h *host.Host, warmup, window sim.Time, extra func(m *Measure)) func() any {
	return func() any {
		h.Eng.RunUntil(warmup)
		h.ResetStats()
		h.Eng.RunUntil(warmup + window)
		h.Auditor.CheckEnd()
		m := snapshot(h)
		if extra != nil {
			extra(&m)
		}
		return m
	}
}

// ckptFaultSchedule exercises every fault kind with windows straddling the
// snapshot band, the warmup boundary, and the measurement window.
func ckptFaultSchedule() fault.Schedule {
	return fault.Schedule{
		{Kind: fault.DRAMThrottle, StartNs: 4_000, DurationNs: 9_000, Magnitude: 2},
		{Kind: fault.IIOStarve, StartNs: 12_000, DurationNs: 6_000, Magnitude: 0.5},
		{Kind: fault.BankOffline, StartNs: 2_000, DurationNs: 20_000},
		{Kind: fault.LaneDegrade, StartNs: 15_000, DurationNs: 8_000, Magnitude: 1.5},
	}.Normalized()
}

// ckptFabricFaults adds the NIC-level kinds only a fabric can express.
func ckptFabricFaults() fault.Schedule {
	return fault.Schedule{
		{Kind: fault.PauseStorm, StartNs: 6_000, DurationNs: 5_000},
		{Kind: fault.LinkFlap, StartNs: 14_000, DurationNs: 3_000},
		{Kind: fault.DRAMThrottle, StartNs: 9_000, DurationNs: 12_000, Magnitude: 2},
	}.Normalized()
}

func ckptScenarios() []ckptScenario {
	return []ckptScenario{
		{name: "q3co", build: func() ckptRun {
			opt := ckptOptions(false)
			h := opt.newHost()
			addC2MCores(h, Q3, 3)
			addP2MDevice(h, Q3)
			return ckptRun{eng: h.Eng, warmup: ckptWarm, finish: hostFinish(h, ckptWarm, ckptWindow, nil)}
		}},
		{name: "q1co-ddio-audit", build: func() ckptRun {
			opt := ckptOptions(true)
			opt.DDIO = true
			h := opt.newHost()
			addC2MCores(h, Q1, 2)
			addP2MDevice(h, Q1)
			return ckptRun{eng: h.Eng, warmup: ckptWarm, finish: hostFinish(h, ckptWarm, ckptWindow, nil)}
		}},
		{name: "q3co-audit-strict", build: func() ckptRun {
			// Strict cadence: invariants after every 64th event, fail-fast.
			opt := ckptOptions(true)
			opt.Warmup, opt.Window = 3*sim.Microsecond, 6*sim.Microsecond
			cfg := opt.Preset()
			cfg.DDIO.Enabled = false
			cfg.Audit = opt.auditConfig()
			cfg.Audit.Every = 64
			h := host.New(cfg)
			addC2MCores(h, Q3, 2)
			addP2MDevice(h, Q3)
			return ckptRun{eng: h.Eng, warmup: opt.Warmup, finish: hostFinish(h, opt.Warmup, opt.Window, nil)}
		}},
		{name: "prefetch-co", build: func() ckptRun {
			opt := ckptOptions(false)
			cfg := opt.Preset()
			cfg.Core.Prefetch = cpu.DefaultPrefetcher()
			cfg.Audit = opt.auditConfig()
			h := host.New(cfg)
			for i := 0; i < 2; i++ {
				h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
			}
			h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
			return ckptRun{eng: h.Eng, warmup: ckptWarm, finish: hostFinish(h, ckptWarm, ckptWindow, nil)}
		}},
		{name: "faulted", build: func() ckptRun {
			opt := ckptOptions(true)
			opt.Faults = ckptFaultSchedule()
			h := opt.newHost()
			addC2MCores(h, Q3, 2)
			addP2MDevice(h, Q3)
			return ckptRun{eng: h.Eng, warmup: ckptWarm, finish: hostFinish(h, ckptWarm, ckptWindow, nil)}
		}},
		{name: "rdma-q3co", build: func() ckptRun {
			opt := ckptOptions(false)
			h := opt.newHost()
			addC2MCores(h, Q3, 2)
			nicBW, nicPause, nicReset := addRDMADevice(h, Q3)
			finish := func() any {
				h.Eng.RunUntil(ckptWarm)
				h.ResetStats()
				nicReset()
				// Fig-23-style microsecond occupancy sampling rides along so
				// the self-rescheduling sample closure is part of the test.
				var samples []int
				stop := ckptWarm + ckptWindow
				var sample func(any)
				sample = func(any) {
					samples = append(samples, h.IIO.Stats().WriteOcc.Level())
					if h.Eng.Now()+sim.Microsecond <= stop {
						h.Eng.AfterFunc(sim.Microsecond, sample, nil)
					}
				}
				h.Eng.AfterFunc(sim.Microsecond, sample, nil)
				h.Eng.RunUntil(stop)
				m := snapshot(h)
				m.P2MBW = nicBW()
				return struct {
					M       Measure
					Pause   float64
					Samples []int
				}{m, nicPause(), samples}
			}
			return ckptRun{eng: h.Eng, warmup: ckptWarm, finish: finish}
		}},
		{name: "dctcp", build: func() ckptRun {
			opt := ckptOptions(false)
			h, rx := dctcpHost(opt, 2, true)
			warm := 4 * opt.Warmup // DCTCP needs RTTs to converge
			finish := func() any {
				h.Eng.RunUntil(warm)
				h.ResetStats()
				rx.ResetStats()
				h.Eng.RunUntil(warm + ckptWindow)
				return struct {
					M       Measure
					Goodput float64
				}{snapshot(h), rx.GoodputBytesPerSec()}
			}
			return ckptRun{eng: h.Eng, warmup: warm, finish: finish}
		}},
		{name: "redis", build: func() ckptRun {
			opt := ckptOptions(false)
			h := opt.newHost()
			var rs []*apps.Redis
			for i := 0; i < 2; i++ {
				cfg := apps.DefaultRedisConfig()
				cfg.Seed = uint64(100 + i)
				r := apps.NewRedis(h.Eng, cfg, h.Region(cfg.BufBytes))
				rs = append(rs, r)
				h.AddCore(r)
			}
			addP2MDevice(h, Q1)
			finish := hostFinish(h, ckptWarm, ckptWindow, func(m *Measure) {
				var qps float64
				for _, r := range rs {
					qps += r.Queries().RatePerSecond()
				}
				m.C2MBW = qps // reuse the field to fold QPS into the fingerprint
			})
			return ckptRun{eng: h.Eng, warmup: ckptWarm, finish: finish}
		}},
		{name: "hostcc", build: func() ckptRun {
			opt := ckptOptions(false)
			h := opt.newHost()
			addC2MCores(h, Q3, 3)
			addP2MDevice(h, Q3)
			ctl := hostcc.New(h.Eng, hostcc.DefaultConfig(), h.IIO, h.CHA, h.Cores)
			ctl.Start(0)
			finish := hostFinish(h, ckptWarm, ckptWindow, func(m *Measure) {
				m.CHAAdmitLat += ctl.Congested.Frac() + ctl.Throttle.Avg()
			})
			return ckptRun{eng: h.Eng, warmup: ckptWarm, finish: finish}
		}},
		{name: "cxl", build: func() ckptRun {
			opt := ckptOptions(false)
			cfg := opt.Preset()
			cfg.Audit = opt.auditConfig()
			h := host.NewWithCXL(cfg, cxl.DefaultConfig())
			h.AddCore(workload.NewSeqReadWrite(h.CXLRegion(1<<30), 1<<30))
			h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
			h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
			return ckptRun{eng: h.Eng, warmup: ckptWarm, finish: hostFinish(h, ckptWarm, ckptWindow, nil)}
		}},
		{name: "incast", build: func() ckptRun {
			opt := ckptOptions(false)
			return buildIncastCkpt(opt, nil)
		}},
		{name: "incast-faulted-audit", build: func() ckptRun {
			opt := ckptOptions(true)
			return buildIncastCkpt(opt, ckptFabricFaults())
		}},
	}
}

// buildIncastCkpt assembles a 3-host incast rack mirroring runIncastPoint.
func buildIncastCkpt(opt Options, sched fault.Schedule) ckptRun {
	cfg := fabric.DefaultConfig(3)
	hostCfg := opt.Preset()
	hostCfg.DDIO.Enabled = opt.DDIO
	cfg.Host = hostCfg
	cfg.Audit = opt.auditConfig()
	cfg.Faults = sched
	cfg.FaultHost = 1
	f := fabric.New(cfg)
	f.AddIncast(0, 2)
	for i := 0; i < 2; i++ {
		base := f.Hosts[0].Region(1 << 30)
		f.Hosts[0].AddCore(workload.NewSeqReadWrite(base, 1<<30))
	}
	finish := func() any {
		f.Eng.RunUntil(ckptWarm)
		f.ResetStats()
		f.Eng.RunUntil(ckptWarm + ckptWindow)
		f.Auditor.CheckEnd()
		p := IncastPoint{
			Senders:     2,
			RxQueueOcc:  f.NICs[0].RxQueueOcc.Avg(),
			SwEgressOcc: f.Switch.PortOutOccAvg(0),
		}
		for _, n := range f.NICs {
			p.TxBW = append(p.TxBW, n.TxBytesPerSec())
			p.TxPause = append(p.TxPause, n.TxPauseFrac.Frac())
			p.RxBW = append(p.RxBW, n.RxBytesPerSec())
			p.RxPause = append(p.RxPause, n.RxPauseFrac.Frac())
		}
		p.Recv = snapshot(f.Hosts[0])
		ok, detail := f.Conservation()
		if !ok {
			p.Recv.C2MLat = -1
			_ = detail
		}
		return p
	}
	return ckptRun{eng: f.Eng, warmup: ckptWarm, finish: finish}
}

// TestCheckpointRestoreBitIdentity is the snapshot/restore property test:
// for random snapshot instants T (via testing/quick), run-to-T → snapshot →
// finish must equal a straight run, and restore → finish must equal it
// again — for every experiment shape, fabric and fault injection included.
func TestCheckpointRestoreBitIdentity(t *testing.T) {
	for _, sc := range ckptScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			straight := sc.build()
			want := straight.finish()

			f := func(tick uint64) bool {
				at := sim.Time(tick % uint64(sc.warmupFor()))
				r := sc.build()
				r.eng.RunUntil(at)
				s := r.eng.Snapshot()
				if got := r.finish(); !reflect.DeepEqual(want, got) {
					t.Logf("%s: snapshot at %d perturbed the run", sc.name, at)
					return false
				}
				r.eng.Restore(s)
				if got := r.finish(); !reflect.DeepEqual(want, got) {
					t.Logf("%s: restore from %d diverged", sc.name, at)
					return false
				}
				// The snapshot survives a restore: fork it a second time.
				r.eng.Restore(s)
				if got := r.finish(); !reflect.DeepEqual(want, got) {
					t.Logf("%s: second restore from %d diverged", sc.name, at)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// warmupFor reports the scenario's snapshot band (built once, cheaply).
func (sc ckptScenario) warmupFor() sim.Time { return sc.build().warmup }

// TestCheckpointMidWindowRestore snapshots inside the measurement window —
// after ResetStats — so telemetry window state (reset anchors, memoized
// quantile views, partial integrator areas) is part of the restored set.
// The warmup-band property above cannot see those bugs: ResetStats at the
// warmup boundary wipes any mis-restored window state before measurement.
func TestCheckpointMidWindowRestore(t *testing.T) {
	type midScenario struct {
		name  string
		build func() *host.Host
	}
	opt := ckptOptions(true)
	faultedOpt := ckptOptions(true)
	faultedOpt.Faults = ckptFaultSchedule()
	pfOpt := ckptOptions(false)
	scenarios := []midScenario{
		{name: "q3co", build: func() *host.Host {
			h := opt.newHost()
			addC2MCores(h, Q3, 3)
			addP2MDevice(h, Q3)
			return h
		}},
		{name: "faulted", build: func() *host.Host {
			h := faultedOpt.newHost()
			addC2MCores(h, Q3, 2)
			addP2MDevice(h, Q3)
			return h
		}},
		{name: "prefetch", build: func() *host.Host {
			cfg := pfOpt.Preset()
			cfg.Core.Prefetch = cpu.DefaultPrefetcher()
			cfg.Audit = pfOpt.auditConfig()
			h := host.New(cfg)
			h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
			h.AddStorage(periph.BulkConfig(periph.DMAWrite, h.Region(1<<30)))
			return h
		}},
		{name: "redis", build: func() *host.Host {
			h := opt.newHost()
			cfg := apps.DefaultRedisConfig()
			r := apps.NewRedis(h.Eng, cfg, h.Region(cfg.BufBytes))
			h.AddCore(r)
			addP2MDevice(h, Q1)
			return h
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			measure := func(h *host.Host) Measure {
				h.Eng.RunUntil(ckptWarm + ckptWindow)
				h.Auditor.CheckEnd()
				return snapshot(h)
			}

			straight := sc.build()
			straight.Eng.RunUntil(ckptWarm)
			straight.ResetStats()
			want := measure(straight)

			for _, frac := range []sim.Time{3, 7} {
				h := sc.build()
				h.Eng.RunUntil(ckptWarm)
				h.ResetStats()
				h.Eng.RunUntil(ckptWarm + ckptWindow/frac)
				s := h.Snapshot()
				if got := measure(h); !reflect.DeepEqual(want, got) {
					t.Fatalf("mid-window snapshot at window/%d perturbed the run:\nwant %+v\ngot  %+v", frac, want, got)
				}
				h.Restore(s)
				if got := measure(h); !reflect.DeepEqual(want, got) {
					t.Fatalf("mid-window restore at window/%d diverged:\nwant %+v\ngot  %+v", frac, want, got)
				}
			}
		})
	}
}

// TestCheckpointMidWindowFabric is the fabric analogue: snapshot a rack
// mid-measurement and check restore-continue bit-identity on the full
// incast observable set.
func TestCheckpointMidWindowFabric(t *testing.T) {
	opt := ckptOptions(true)
	capture := func(f *fabric.Fabric) IncastPoint {
		f.Eng.RunUntil(ckptWarm + ckptWindow)
		f.Auditor.CheckEnd()
		p := IncastPoint{RxQueueOcc: f.NICs[0].RxQueueOcc.Avg(), SwEgressOcc: f.Switch.PortOutOccAvg(0)}
		for _, n := range f.NICs {
			p.TxBW = append(p.TxBW, n.TxBytesPerSec())
			p.TxPause = append(p.TxPause, n.TxPauseFrac.Frac())
			p.RxBW = append(p.RxBW, n.RxBytesPerSec())
			p.RxPause = append(p.RxPause, n.RxPauseFrac.Frac())
		}
		p.Recv = snapshot(f.Hosts[0])
		return p
	}
	build := func() *fabric.Fabric {
		cfg := fabric.DefaultConfig(3)
		cfg.Host = opt.Preset()
		cfg.Audit = opt.auditConfig()
		cfg.Faults = ckptFabricFaults()
		cfg.FaultHost = 1
		f := fabric.New(cfg)
		f.AddIncast(0, 2)
		for i := 0; i < 2; i++ {
			f.Hosts[0].AddCore(workload.NewSeqReadWrite(f.Hosts[0].Region(1<<30), 1<<30))
		}
		return f
	}

	straight := build()
	straight.Eng.RunUntil(ckptWarm)
	straight.ResetStats()
	want := capture(straight)

	f := build()
	f.Eng.RunUntil(ckptWarm)
	f.ResetStats()
	f.Eng.RunUntil(ckptWarm + ckptWindow/4)
	s := f.Snapshot()
	if got := capture(f); !reflect.DeepEqual(want, got) {
		t.Fatalf("fabric mid-window snapshot perturbed the run:\nwant %+v\ngot  %+v", want, got)
	}
	f.Restore(s)
	if got := capture(f); !reflect.DeepEqual(want, got) {
		t.Fatalf("fabric mid-window restore diverged:\nwant %+v\ngot  %+v", want, got)
	}
}
