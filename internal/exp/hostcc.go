package exp

import (
	"repro/internal/host"
	"repro/internal/hostcc"
)

// HostCCStudy compares a red-regime colocation with and without the hostCC-
// style controller — the §7 future-work direction made concrete.
type HostCCStudy struct {
	Quadrant Quadrant
	Cores    int

	// Baselines.
	C2MIso, P2MIso float64
	// Without the controller.
	C2MOff, P2MOff float64
	// With the controller.
	C2MOn, P2MOn float64
	// Controller telemetry (with-controller run).
	CongestedFrac float64
	AvgGapNanos   float64
}

// P2MDegrOff/On report the P2M degradation without/with the controller.
func (s HostCCStudy) P2MDegrOff() float64 { return degradation(s.P2MIso, s.P2MOff) }
func (s HostCCStudy) P2MDegrOn() float64  { return degradation(s.P2MIso, s.P2MOn) }

// C2MDegrOff/On report the C2M degradation without/with the controller.
func (s HostCCStudy) C2MDegrOff() float64 { return degradation(s.C2MIso, s.C2MOff) }
func (s HostCCStudy) C2MDegrOn() float64  { return degradation(s.C2MIso, s.C2MOn) }

// RunHostCCStudy runs one quadrant point three ways: isolated, colocated
// uncontrolled, and colocated with the controller managing the C2M cores.
func RunHostCCStudy(q Quadrant, cores int, cfg hostcc.Config, opt Options) HostCCStudy {
	s := HostCCStudy{Quadrant: q, Cores: cores}
	s.C2MIso, s.P2MIso, s.C2MOff, s.P2MOff = uncontrolled(q, cores, opt)

	on := opt.newHost()
	addC2MCores(on, q, cores)
	addP2MDevice(on, q)
	cfg.Audit = on.Auditor
	ctl := hostcc.New(on.Eng, cfg, on.IIO, on.CHA, on.Cores)
	ctl.Start(0)
	on.Run(opt.Warmup, opt.Window)
	s.C2MOn, s.P2MOn = on.C2MBW(), on.P2MBW()
	s.CongestedFrac = ctl.Congested.Frac()
	s.AvgGapNanos = ctl.Throttle.Avg()
	return s
}

// uncontrolled runs one quadrant point's isolated baselines and its
// unmitigated colocation, the reference both mitigation studies compare
// against.
func uncontrolled(q Quadrant, cores int, opt Options) (c2mIso, p2mIso, c2mOff, p2mOff float64) {
	iso, p2m, off := quadrantRun(opt, q, cores, false), quadrantRun(opt, q, 0, true), quadrantRun(opt, q, cores, true)
	return iso.C2MBW, p2m.P2MBW, off.C2MBW, off.P2MBW
}

// MCIsolationStudy compares the red regime with and without WPQ slot
// reservation for P2M writes — the §7 "memory controller scheduling"
// direction, an alternative to throttling-based control.
type MCIsolationStudy struct {
	Cores          int
	C2MIso, P2MIso float64
	C2MOff, P2MOff float64 // no reservation
	C2MOn, P2MOn   float64 // with reservation
}

// P2MDegrOff/On and C2MDegrOff/On mirror HostCCStudy.
func (s MCIsolationStudy) P2MDegrOff() float64 { return degradation(s.P2MIso, s.P2MOff) }
func (s MCIsolationStudy) P2MDegrOn() float64  { return degradation(s.P2MIso, s.P2MOn) }
func (s MCIsolationStudy) C2MDegrOff() float64 { return degradation(s.C2MIso, s.C2MOff) }
func (s MCIsolationStudy) C2MDegrOn() float64  { return degradation(s.C2MIso, s.C2MOn) }

// RunMCIsolationStudy runs quadrant 3 with `reserve` WPQ slots per channel
// set aside for P2M writes.
func RunMCIsolationStudy(cores, reserve int, opt Options) MCIsolationStudy {
	s := MCIsolationStudy{Cores: cores}
	s.C2MIso, s.P2MIso, s.C2MOff, s.P2MOff = uncontrolled(Q3, cores, opt)

	resOpt := opt
	base := opt.Preset
	resOpt.Preset = func() host.Config {
		cfg := base()
		cfg.MC.WPQReserveP2M = reserve
		return cfg
	}
	on := resOpt.newHost()
	addC2MCores(on, Q3, cores)
	addP2MDevice(on, Q3)
	on.Run(opt.Warmup, opt.Window)
	s.C2MOn, s.P2MOn = on.C2MBW(), on.P2MBW()
	return s
}
