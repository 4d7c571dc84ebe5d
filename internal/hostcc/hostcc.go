// Package hostcc implements a host congestion controller in the spirit of
// hostCC (Agarwal et al., SIGCOMM 2023), applied to the direction the paper
// outlines in §7: allocating host-network resources even when all traffic is
// contained within a single host.
//
// The controller samples sub-microsecond host congestion signals — IIO
// write-credit occupancy (the P2M-Write domain running out of spare credits)
// and the CHA write backlog (the red regime's N_waiting) — and throttles C2M
// cores' issue rate with AIMD, modeling per-core memory-bandwidth allocation
// hardware (Intel MBA-style). In the red regime this returns P2M throughput
// toward its isolated rate at a modest, controlled C2M cost; in the blue
// regime the signals stay quiet and the controller does nothing.
package hostcc

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/cha"
	"repro/internal/cpu"
	"repro/internal/iio"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config tunes the controller.
type Config struct {
	// Interval is the sampling/actuation period.
	Interval sim.Time
	// IIOOccHigh marks congestion when the instantaneous IIO write-credit
	// occupancy reaches this level (spare credits nearly gone).
	IIOOccHigh int
	// BacklogHigh marks congestion when the CHA write backlog reaches this
	// level.
	BacklogHigh int
	// Step is the additive issue-gap increase applied to every managed core
	// per congested interval.
	Step sim.Time
	// MaxGap bounds the throttle.
	MaxGap sim.Time
	// Relax is the multiplicative gap decay per uncongested interval
	// (0 < Relax < 1).
	Relax float64

	// Audit, when non-nil, receives the controller's window invariant.
	Audit *audit.Auditor
}

// DefaultConfig returns a controller tuned for the Cascade Lake preset: the
// IIO threshold sits just under the 92-credit limit and the backlog
// threshold just under the level at which P2M-Write latency inflation
// becomes throughput loss.
func DefaultConfig() Config {
	return Config{
		Interval:    2 * sim.Microsecond,
		IIOOccHigh:  80,
		BacklogHigh: 40,
		Step:        2 * sim.Nanosecond,
		MaxGap:      60 * sim.Nanosecond,
		Relax:       0.75,
	}
}

// Controller throttles a set of C2M cores based on host congestion signals.
type Controller struct {
	eng   *sim.Engine
	cfg   Config
	io    *iio.IIO
	ch    *cha.CHA
	cores []*cpu.Core

	baseGap sim.Time
	gap     sim.Time
	running bool
	tickFn  sim.EventFunc // bound tick handler: one event per interval

	// Throttle tracks the applied issue gap over time (ns average).
	Throttle *telemetry.Integrator
	// CongestedFrac measures how often the congestion signal fired.
	Congested *telemetry.FracTimer
}

// New builds a controller managing the given cores.
func New(eng *sim.Engine, cfg Config, io *iio.IIO, ch *cha.CHA, cores []*cpu.Core) *Controller {
	if cfg.Interval <= 0 || cfg.Relax <= 0 || cfg.Relax >= 1 {
		panic("hostcc: need Interval > 0 and 0 < Relax < 1")
	}
	c := &Controller{
		eng:       eng,
		cfg:       cfg,
		io:        io,
		ch:        ch,
		cores:     cores,
		Throttle:  telemetry.NewIntegrator(eng),
		Congested: telemetry.NewFracTimer(eng),
	}
	if len(cores) > 0 {
		c.baseGap = cores[0].IssueGap()
		c.gap = c.baseGap
	}
	c.tickFn = c.tickEvent
	if aud := cfg.Audit; aud.Enabled() {
		aud.Check("hostcc", "gap", func() (bool, string) {
			if c.gap < c.baseGap || c.gap > cfg.MaxGap {
				return false, fmt.Sprintf("issue gap %v outside [%v, %v]", c.gap, c.baseGap, cfg.MaxGap)
			}
			return true, ""
		})
	}
	return c
}

func (c *Controller) tickEvent(any) { c.tick() }

// Start begins the control loop at time t.
func (c *Controller) Start(t sim.Time) {
	if c.running {
		return
	}
	c.running = true
	c.eng.AtFunc(t, c.tickFn, nil)
}

// congested evaluates the host congestion signal right now.
func (c *Controller) congested() bool {
	if c.io.Stats().WriteOcc.Level() >= c.cfg.IIOOccHigh {
		return true
	}
	return c.ch.Stats().WBacklog.Level() >= c.cfg.BacklogHigh
}

func (c *Controller) tick() {
	cong := c.congested()
	c.Congested.Set(cong)
	if cong {
		c.gap += c.cfg.Step
		if c.gap > c.cfg.MaxGap {
			c.gap = c.cfg.MaxGap
		}
	} else {
		relaxed := sim.Time(float64(c.gap-c.baseGap) * c.cfg.Relax)
		c.gap = c.baseGap + relaxed
	}
	for _, core := range c.cores {
		core.SetIssueGap(c.gap)
	}
	c.Throttle.Set(int(c.gap / sim.Nanosecond))
	c.eng.AfterFunc(c.cfg.Interval, c.tickFn, nil)
}

// GapNanos reports the currently applied issue gap in nanoseconds.
func (c *Controller) GapNanos() float64 { return float64(c.gap) / 1e3 }
