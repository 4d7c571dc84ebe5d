// Quickstart: build a Cascade Lake host, colocate a memory-bound app with a
// storage workload, and watch the blue regime appear — C2M throughput
// degrades while the storage device is untouched, long before memory
// bandwidth saturates.
package main

import (
	"fmt"

	"repro/hostnet"
)

func main() {
	warm, window := 20*hostnet.Microsecond, 100*hostnet.Microsecond

	// Baseline: one sequential-read core, alone.
	iso := hostnet.New(hostnet.CascadeLake())
	iso.AddCore(hostnet.SeqRead(iso.Region(1<<30), 1<<30))
	iso.Run(warm, window)
	isoBW := iso.C2MReadBW()
	isoLat := iso.Cores[0].Stats().LFBLat.AvgNanos()

	// Colocated: the same core next to a bulk storage workload (DMA writes).
	h := hostnet.New(hostnet.CascadeLake())
	h.AddCore(hostnet.SeqRead(h.Region(1<<30), 1<<30))
	h.AddStorage(hostnet.BulkStorage(hostnet.DMAWrite, h.Region(1<<30)))
	h.Run(warm, window)

	coBW := h.C2MReadBW()
	coLat := h.Cores[0].Stats().LFBLat.AvgNanos()
	memC2M, memP2M := h.MemBW()

	fmt.Printf("C2M app:  %.2f GB/s alone -> %.2f GB/s colocated (%.2fx degradation)\n",
		isoBW/1e9, coBW/1e9, isoBW/coBW)
	fmt.Printf("C2M-Read domain latency: %.0f ns -> %.0f ns\n", isoLat, coLat)
	fmt.Printf("P2M app:  %.2f GB/s (link-bound, unaffected)\n", h.P2MBW()/1e9)
	fmt.Printf("memory bandwidth: %.1f of %.1f GB/s (%.0f%% — far from saturated)\n",
		(memC2M+memP2M)/1e9, h.Cfg.TheoreticalMemBW/1e9,
		(memC2M+memP2M)/h.Cfg.TheoreticalMemBW*100)
	fmt.Printf("regime: %v\n\n", hostnet.Classify(isoBW/coBW, 1.0))

	// The domain lens (§4): why the asymmetry?
	domains := hostnet.CascadeLakeDomains()
	read := hostnet.Measurement{
		Kind: hostnet.C2MRead, AvgLatencyNanos: coLat,
		AvgCreditsInUse: h.Cores[0].Stats().LFBLat.Occ.Avg(),
		MaxCreditsInUse: h.Cores[0].Stats().LFBLat.Occ.Max(),
		Throughput:      coBW,
	}
	readIso := hostnet.Measurement{Kind: hostnet.C2MRead, AvgLatencyNanos: isoLat}
	fmt.Println(hostnet.Explain(domains[0], read, readIso))

	iioStats := h.IIO.Stats()
	write := hostnet.Measurement{
		Kind: hostnet.P2MWrite, AvgLatencyNanos: iioStats.WriteLat.AvgNanos(),
		AvgCreditsInUse: iioStats.WriteOcc.Avg(),
		MaxCreditsInUse: iioStats.WriteOcc.Max(),
		Throughput:      h.P2MBW(),
	}
	writeIso := hostnet.Measurement{Kind: hostnet.P2MWrite, AvgLatencyNanos: 300}
	fmt.Println(hostnet.Explain(domains[3], write, writeIso))
}
