package exp

import (
	"repro/internal/core"
	"repro/internal/periph"
)

// DomainEvidencePoint is one core-count sample of the Fig 6 series: the
// domain latency measured at the credit pool alongside the downstream
// segment latency it must (or must not) contain.
type DomainEvidencePoint struct {
	Cores int

	// Fig 6a: C2M-Read workload. LFB latency vs CHA->DRAM read latency; the
	// former must strictly contain the latter, and their inflation from 1 to
	// N cores must track.
	ReadLFBLat    float64
	ReadCHADram   float64
	ReadLFBOccMax int

	// Fig 6b: C2M-ReadWrite workload. LFB latency vs CHA->MC write latency;
	// the C2M-Write domain excludes the MC, so the CHA->MC write latency may
	// exceed the LFB latency under load.
	RWLFBLat   float64
	RWCHAMCWr  float64
	RWWriteLat float64

	// Fig 6c/6d: low-load P2M-Write probe colocated with C2M-ReadWrite.
	// IIO latency vs CHA->MC write latency (P2M): the former contains the
	// latter and their inflations track.
	ProbeIIOLat  float64
	ProbeCHAMCWr float64
}

// DomainEvidence is the full Fig 6 dataset plus the §4.2 credit counts.
type DomainEvidence struct {
	Points []DomainEvidencePoint
	// Credit characterization (§4.2): max observed occupancies.
	LFBCredits      int
	IIOWriteCredits int
	IIOReadCredits  int // lower bound via CHA in-flight P2M reads
	// Unloaded latencies (1-core / probe points).
	UnloadedC2MRead  float64
	UnloadedC2MWrite float64
	UnloadedP2MWrite float64
}

// RunFig6 reproduces the §4.2 domain-evidence measurements.
func RunFig6(opt Options) DomainEvidence {
	var ev DomainEvidence
	for _, n := range DefaultCoreSweep() {
		var p DomainEvidencePoint
		p.Cores = n

		// (a) C2M-Read sweep.
		m := quadrantRun(opt, Q1, n, false)
		p.ReadLFBLat = m.C2MReadLat
		p.ReadCHADram = m.CHAReadLatC2M
		p.ReadLFBOccMax = m.LFBOccMax

		// (b) C2M-ReadWrite sweep.
		m = quadrantRun(opt, Q3, n, false)
		p.RWLFBLat = m.C2MLat
		p.RWCHAMCWr = m.CHAWriteLatC2M
		p.RWWriteLat = m.C2MWriteLat

		// (c, d) low-load P2M-Write probe + C2M-ReadWrite.
		h := opt.newHost()
		addC2MCores(h, Q3, n)
		h.AddStorage(periph.ProbeConfig(periph.DMAWrite, h.Region(1<<30)))
		h.Run(opt.Warmup, opt.Window)
		m = snapshot(h)
		p.ProbeIIOLat = m.P2MWriteLat
		p.ProbeCHAMCWr = m.CHAWriteLatP2M

		ev.Points = append(ev.Points, p)
		if p.ReadLFBOccMax > ev.LFBCredits {
			ev.LFBCredits = p.ReadLFBOccMax
		}
		if n == 1 {
			ev.UnloadedC2MRead = p.ReadLFBLat
			ev.UnloadedC2MWrite = p.RWWriteLat
			ev.UnloadedP2MWrite = p.ProbeIIOLat
		}
	}

	// Credit saturation probes: bulk P2M under maximal C2M pressure.
	ev.IIOWriteCredits = quadrantRun(opt, Q3, 6, true).IIOWriteOccMax
	ev.IIOReadCredits = quadrantRun(opt, Q2, 6, true).P2MReadsInflightMax
	return ev
}

// Domains reports the static §4.1/§4.2 characterization used by the library
// and checked against measurement by RunFig6.
func Domains() [4]core.Domain { return core.CascadeLakeDomains() }
