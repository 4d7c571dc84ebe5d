// Package periph models peripheral devices that generate P2M traffic
// through the IIO — in the paper's local setup, NVMe SSDs driven by FIO.
//
// A "storage read" workload makes the device DMA-write data into host memory
// (P2M-Write traffic); a "storage write" workload makes it DMA-read host
// memory (P2M-Read traffic). Requests are issued at cacheline granularity
// against the IIO credit pools, so device throughput emerges from credits,
// link rate, and domain latency exactly as in §4.
package periph

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/iio"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Direction selects the storage workload's DMA direction.
type Direction uint8

const (
	// DMAWrite: storage reads -> device writes host memory (P2M-Write).
	DMAWrite Direction = iota
	// DMARead: storage writes -> device reads host memory (P2M-Read).
	DMARead
)

// Config describes one storage device workload (FIO semantics).
type Config struct {
	Dir          Direction
	RequestBytes int      // I/O request size (the paper uses 8 MB bulk, 4 KB probe)
	QueueDepth   int      // concurrent requests
	DeviceDelay  sim.Time // device-internal latency per request before DMA starts
	BufBase      mem.Addr // DMA target region base
	BufBytes     int64    // region size; requests walk it sequentially and wrap

	// Audit, when non-nil, receives the device's request-conservation
	// invariant.
	Audit *audit.Auditor
}

// BulkConfig returns the paper's bulk FIO workload: sequential 8 MB requests
// at a queue depth deep enough to saturate the PCIe link.
func BulkConfig(dir Direction, base mem.Addr) Config {
	return Config{
		Dir:          dir,
		RequestBytes: 8 << 20,
		QueueDepth:   4,
		DeviceDelay:  2 * sim.Microsecond,
		BufBase:      base,
		BufBytes:     1 << 30,
	}
}

// ProbeConfig returns the paper's low-load probe: 4 KB requests at queue
// depth 1 (§4.2's P2M-Write domain characterization).
func ProbeConfig(dir Direction, base mem.Addr) Config {
	return Config{
		Dir:          dir,
		RequestBytes: 4096,
		QueueDepth:   1,
		DeviceDelay:  10 * sim.Microsecond,
		BufBase:      base,
		BufBytes:     1 << 30,
	}
}

// Stats exposes device-level throughput probes.
type Stats struct {
	Requests *telemetry.Counter // completed I/O requests (IOPS)
	Lines    *telemetry.Counter // completed cachelines (bandwidth)
}

// Reset starts a new measurement window.
func (s *Stats) Reset() { s.Requests.Reset(); s.Lines.Reset() }

// IOPS reports completed requests per simulated second.
func (s *Stats) IOPS() float64 { return s.Requests.RatePerSecond() }

// BytesPerSec reports completed DMA bandwidth.
func (s *Stats) BytesPerSec() float64 { return s.Lines.BytesPerSecond() }

type request struct {
	toIssue    int    // lines not yet accepted by the IIO
	toComplete int    // lines whose credits have not yet returned
	done       func() // bound lineDone(self), created once per pooled request
}

// Storage is one device workload instance.
type Storage struct {
	eng    *sim.Engine
	cfg    Config
	io     *iio.IIO
	origin int

	nextLine int64
	active   []*request
	free     []*request // retired requests, recycled with their done closures
	arming   int        // requests waiting out DeviceDelay
	waiting  bool
	started  bool   // any request ever armed (read by the audit invariant)
	wake     func() // bound credit-wait callback, created once
	stats    *Stats
}

// New builds a storage workload; call Start to begin I/O.
func New(eng *sim.Engine, cfg Config, io *iio.IIO, origin int) *Storage {
	if cfg.RequestBytes < mem.LineSize || cfg.QueueDepth <= 0 {
		panic("periph: invalid storage config")
	}
	s := &Storage{
		eng:    eng,
		cfg:    cfg,
		io:     io,
		origin: origin,
		stats: &Stats{
			Requests: telemetry.NewCounter(eng),
			Lines:    telemetry.NewCounter(eng),
		},
	}
	s.wake = func() { s.waiting = false; s.pump() }
	if aud := cfg.Audit; aud.Enabled() {
		domain := fmt.Sprintf("periph/dev%d", origin)
		aud.Check(domain, "queue_depth", func() (bool, string) {
			// Before Start fires, no requests exist yet; afterwards every
			// queue-depth slot is either arming or active (conservation).
			n := s.arming + len(s.active)
			if n == 0 && !s.started {
				return true, ""
			}
			s.started = true
			if n != cfg.QueueDepth {
				return false, fmt.Sprintf("arming=%d active=%d != QueueDepth=%d", s.arming, len(s.active), cfg.QueueDepth)
			}
			return true, ""
		})
	}
	return s
}

// Stats returns the device's probes.
func (s *Storage) Stats() *Stats { return s.stats }

// Start arms the initial queue-depth worth of requests at time t.
func (s *Storage) Start(t sim.Time) {
	s.eng.AtFunc(t, func(any) {
		for q := 0; q < s.cfg.QueueDepth; q++ {
			s.armRequest()
		}
	}, nil)
}

// armedEvent makes a request issuable once its device-internal latency ends.
func armedEvent(arg any) {
	s := arg.(*Storage)
	s.arming--
	lines := s.cfg.RequestBytes / mem.LineSize
	var req *request
	if n := len(s.free); n > 0 {
		req = s.free[n-1]
		s.free = s.free[:n-1]
		req.toIssue, req.toComplete = lines, lines
	} else {
		req = &request{toIssue: lines, toComplete: lines}
		req.done = func() { s.lineDone(req) }
	}
	s.active = append(s.active, req)
	s.pump()
}

// armRequest starts the device-internal latency for one request, then makes
// it issuable.
func (s *Storage) armRequest() {
	s.started = true
	s.arming++
	s.eng.AfterFunc(s.cfg.DeviceDelay, armedEvent, s)
}

// pump issues lines for active requests in order until credits run out.
func (s *Storage) pump() {
	for len(s.active) > 0 {
		req := s.active[0]
		if req.toIssue == 0 {
			// Fully issued but not complete: later requests may still issue.
			advanced := false
			for _, r := range s.active[1:] {
				if r.toIssue > 0 {
					req = r
					advanced = true
					break
				}
			}
			if !advanced {
				return
			}
		}
		addr := s.cfg.BufBase + mem.Addr((s.nextLine*mem.LineSize)%s.cfg.BufBytes)
		var ok bool
		if s.cfg.Dir == DMAWrite {
			ok = s.io.TryWrite(addr, s.origin, req.done)
		} else {
			ok = s.io.TryRead(addr, s.origin, req.done)
		}
		if !ok {
			if !s.waiting {
				s.waiting = true
				if s.cfg.Dir == DMAWrite {
					s.io.NotifyWrite(s.wake)
				} else {
					s.io.NotifyRead(s.wake)
				}
			}
			return
		}
		s.nextLine++
		req.toIssue--
	}
}

func (s *Storage) lineDone(req *request) {
	s.stats.Lines.Inc()
	req.toComplete--
	if req.toComplete == 0 {
		s.stats.Requests.Inc()
		// Retire: requests complete roughly in order; remove this one.
		for i, r := range s.active {
			if r == req {
				s.active = append(s.active[:i], s.active[i+1:]...)
				break
			}
		}
		s.free = append(s.free, req)
		s.armRequest()
	}
	s.pump()
}
