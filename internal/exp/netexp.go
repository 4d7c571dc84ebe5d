package exp

import (
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// addRDMADevice attaches the quadrant's RDMA load to the host and returns
// the NIC throughput/pause accessors.
func addRDMADevice(h *host.Host, q Quadrant) (bw func() float64, pause func() float64, reset func()) {
	cfg := netsim.DefaultRDMAWriteConfig(h.Region(1 << 30))
	cfg.Audit = h.Auditor
	if q.P2MWrites() {
		nic := netsim.NewRDMAWrite(h.Eng, cfg, h.IIO)
		h.Faults.AttachNIC(nic)
		nic.Start(0)
		return nic.BytesPerSec, func() float64 { return nic.PauseFrac.Frac() }, nic.ResetStats
	}
	nic := netsim.NewRDMARead(h.Eng, cfg, h.IIO)
	h.Faults.AttachNIC(nic)
	nic.Start(0)
	return nic.BytesPerSec, func() float64 { return 0 }, nic.ResetStats
}

// rdmaBaseline measures the quadrant's RDMA NIC alone, the P2M-alone
// baseline of every RDMA point, from opt.Runs when an earlier lookup
// already ran it. Keyed like the storage device's baseline, plus the
// device kind.
func rdmaBaseline(opt Options, q Quadrant) Measure {
	k := p2mRunKey(q)
	return opt.oneHostRun(k, true, func(h *host.Host) Measure {
		nicBW, _, nicReset := addRDMADevice(h, k.q)
		h.Eng.RunUntil(opt.Warmup)
		h.ResetStats()
		nicReset()
		h.Eng.RunUntil(opt.Warmup + opt.Window)
		m := snapshot(h)
		m.P2MBW = nicBW()
		return m
	})
}

// RDMAQuadrantPoint extends a quadrant point with RoCE/PFC observables.
type RDMAQuadrantPoint struct {
	QuadrantPoint
	PauseFrac float64 // fraction of time PFC pause asserted (colocated)
	// IIOOccSamples are per-microsecond IIO write-buffer occupancy samples
	// from the colocated run (Fig 23).
	IIOOccSamples []int
}

// RunRDMAQuadrant mirrors RunQuadrant with NIC-generated P2M traffic
// (Fig 18, with the probes of Figs 20-22/24 in the Measure snapshots). The
// NIC-only baseline and the per-count points run on the options' pool.
func RunRDMAQuadrant(q Quadrant, coreCounts []int, opt Options) []RDMAQuadrantPoint {
	var p2mIso Measure
	pts := sweep(opt, coreCounts, func() { p2mIso = rdmaBaseline(opt, q) }, func(_, n int) RDMAQuadrantPoint {
		var p RDMAQuadrantPoint
		p.Quadrant, p.Cores = q, n
		p.C2MIso = quadrantRun(opt, q, n, false)

		co := opt.newHost()
		addC2MCores(co, q, n)
		coBW, coPause, coReset := addRDMADevice(co, q)
		co.Eng.RunUntil(opt.Warmup)
		co.ResetStats()
		coReset()
		// Microsecond-scale IIO occupancy sampling (Fig 23).
		stop := co.Eng.Now() + opt.Window
		var sample func(any)
		sample = func(any) {
			p.IIOOccSamples = append(p.IIOOccSamples, co.IIO.Stats().WriteOcc.Level())
			if co.Eng.Now()+sim.Microsecond <= stop {
				co.Eng.AfterFunc(sim.Microsecond, sample, nil)
			}
		}
		co.Eng.AfterFunc(sim.Microsecond, sample, nil)
		co.Eng.RunUntil(stop)
		p.Co = snapshot(co)
		p.Co.P2MBW = coBW()
		p.PauseFrac = coPause()
		return p
	})
	for i := range pts {
		pts[i].P2MIso = p2mIso
	}
	return pts
}

// RunFig18 runs all four RDMA quadrants in parallel.
func RunFig18(opt Options) map[Quadrant][]RDMAQuadrantPoint {
	return perQuadrant(opt, func(q Quadrant, opt Options) []RDMAQuadrantPoint {
		return RunRDMAQuadrant(q, DefaultCoreSweep(), opt)
	})
}

// DCTCPPoint is one data point of the TCP case study (Fig 19/25/26).
type DCTCPPoint struct {
	C2MCores  int
	ReadWrite bool // memory app kind: C2M-Read vs C2M-ReadWrite

	// Memory app (iso/colocated aggregate bandwidth).
	MemAppIso, MemAppCo float64
	// Network app goodput (iso/colocated).
	NetIso, NetCo float64
	// P2M (NIC DMA) bandwidth colocated.
	P2MCo float64
	// LossRate is dropped/sent packets colocated.
	LossRate float64
	Co       Measure
	// MemIso is the memory app's isolated snapshot (formula constants).
	MemIso Measure
	// CopierLFBOcc and CopierC2MBW are the network app cores' average LFB
	// occupancy and aggregate C2M bandwidth in the colocated run (Appendix
	// E.2's inputs).
	CopierLFBOcc float64
	CopierC2MBW  float64
	// NetIsoP2MLat is the isolated run's P2M-Write domain latency (ns).
	NetIsoP2MLat float64
}

// MemAppDegradation reports the memory app's slowdown.
func (p DCTCPPoint) MemAppDegradation() float64 { return degradation(p.MemAppIso, p.MemAppCo) }

// NetAppDegradation reports the network app's slowdown.
func (p DCTCPPoint) NetAppDegradation() float64 { return degradation(p.NetIso, p.NetCo) }

// dctcpHost builds a receiver host: 4 copier cores + n memory-app cores.
func dctcpHost(opt Options, memCores int, readWrite bool) (*host.Host, *netsim.DCTCPReceiver) {
	h := opt.newHost()
	cfg := netsim.DefaultDCTCPConfig(h.Region(1 << 30))
	cfg.Audit = h.Auditor
	rx := netsim.NewDCTCPReceiver(h.Eng, cfg, h.IIO)
	for i := 0; i < cfg.Flows; i++ {
		c := h.AddCore(rx.Copier(i))
		rx.AttachCopier(i, c)
	}
	addC2MCores(h, memQuadrant(readWrite), memCores)
	rx.Start(0)
	return h, rx
}

// memQuadrant is a quadrant whose compute workload is the memory app's.
func memQuadrant(readWrite bool) Quadrant {
	if readWrite {
		return Q3
	}
	return Q1
}

// memAppBW sums bandwidth over the memory-app cores (indices >= flows).
func memAppBW(h *host.Host, flows int) float64 {
	var bw float64
	for i, c := range h.Cores {
		if i >= flows {
			bw += c.Stats().ReadBytesPerSec() + c.Stats().WriteBytesPerSec()
		}
	}
	return bw
}

// RunDCTCP sweeps memory-app core counts against the 4-flow DCTCP receiver
// (Fig 19; probes for Figs 25/26 ride along in Co).
func RunDCTCP(readWrite bool, coreCounts []int, opt Options) []DCTCPPoint {
	var netIso, netIsoP2MLat float64
	pts := sweep(opt, coreCounts, func() {
		// Network-only baseline.
		nIso, rxIso := dctcpHost(opt, 0, readWrite)
		nIso.Eng.RunUntil(opt.Warmup * 4) // DCTCP needs RTTs to converge
		nIso.ResetStats()
		rxIso.ResetStats()
		nIso.Eng.RunUntil(nIso.Eng.Now() + opt.Window)
		netIso = rxIso.GoodputBytesPerSec()
		netIsoP2MLat = snapshot(nIso).P2MWriteLat
	}, func(_, n int) DCTCPPoint {
		p := DCTCPPoint{C2MCores: n, ReadWrite: readWrite}
		p.MemIso = quadrantRun(opt, memQuadrant(readWrite), n, false)
		p.MemAppIso = p.MemIso.C2MBW

		co, rx := dctcpHost(opt, n, readWrite)
		co.Eng.RunUntil(opt.Warmup * 4)
		co.ResetStats()
		rx.ResetStats()
		co.Eng.RunUntil(co.Eng.Now() + opt.Window)
		flows := netsim.DefaultDCTCPConfig(0).Flows
		p.MemAppCo = memAppBW(co, flows)
		for i := 0; i < flows && i < len(co.Cores); i++ {
			st := co.Cores[i].Stats()
			p.CopierLFBOcc += st.LFBLat.Occ.Avg()
			p.CopierC2MBW += st.ReadBytesPerSec() + st.WriteBytesPerSec()
		}
		p.NetCo = rx.GoodputBytesPerSec()
		p.P2MCo = rx.P2MBytesPerSec()
		p.LossRate = rx.LossRate()
		p.Co = snapshot(co)
		p.Co.P2MBW = p.P2MCo
		return p
	})
	for i := range pts {
		pts[i].NetIso = netIso
		pts[i].NetIsoP2MLat = netIsoP2MLat
	}
	return pts
}

// fig19Cores are the memory-app core counts of the TCP case study (4 cores
// are dedicated to iperf).
var fig19Cores = []int{1, 2, 3, 4}

// RunFig19 runs both TCP case studies in parallel: C2M-Read + TCP Rx and
// C2M-ReadWrite + TCP Rx, sweeping 1-4 memory-app cores.
func RunFig19(opt Options) (read, readWrite []DCTCPPoint) {
	pdo(opt,
		func() { read = RunDCTCP(false, fig19Cores, opt) },
		func() { readWrite = RunDCTCP(true, fig19Cores, opt) },
	)
	return read, readWrite
}

// fig19Tasks mirrors RunFig19 (and RunFig29, which runs it): two DCTCP
// sweeps fanned out in parallel.
func fig19Tasks(Spec) int { return 2 + 2*sweepTasks(len(fig19Cores)) }
