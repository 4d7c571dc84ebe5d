// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure in the paper's evaluation. Each benchmark regenerates its
// artifact on a reduced measurement window (so `go test -bench=.` stays
// tractable) and reports the headline numbers as custom metrics, making the
// shape of every result visible straight from the bench output:
//
//	go test -bench=. -benchmem
//
// The full-size regenerations (paper-scale windows, all data points) are in
// cmd/hostnetsim; EXPERIMENTS.md records a complete run.
package repro

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/hostnet"
	"repro/internal/exp"
	"repro/internal/sim"
)

// benchOptions shrinks the measurement window so each bench iteration is
// cheap while preserving steady-state shapes.
func benchOptions() hostnet.Options {
	opt := hostnet.DefaultOptions()
	opt.Warmup = 10 * sim.Microsecond
	opt.Window = 40 * sim.Microsecond
	return opt
}

// benchWindowOpt returns the defaults at a custom reduced window (the app
// figures use their own window sizes).
func benchWindowOpt(window sim.Time) hostnet.Options {
	opt := hostnet.DefaultOptions()
	opt.Window = window
	return opt
}

// BenchmarkTable1Configs builds both testbed presets and runs a trivial
// workload on each (Table 1).
func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range []hostnet.Config{hostnet.CascadeLake(), hostnet.IceLake()} {
			h := hostnet.New(cfg)
			h.AddCore(hostnet.SeqRead(h.Region(1<<30), 1<<30))
			h.Run(5*sim.Microsecond, 10*sim.Microsecond)
		}
	}
}

// quadrantBench runs one (quadrant, cores) point and reports degradations.
func quadrantBench(b *testing.B, q hostnet.Quadrant, cores int) {
	opt := benchOptions()
	var last exp.QuadrantPoint
	for i := 0; i < b.N; i++ {
		last = exp.RunQuadrantPoint(q, cores, opt)
	}
	b.ReportMetric(last.C2MDegradation(), "c2m-degr-x")
	b.ReportMetric(last.P2MDegradation(), "p2m-degr-x")
	b.ReportMetric(last.Co.MemC2M/1e9, "memC2M-GB/s")
	b.ReportMetric(last.Co.MemP2M/1e9, "memP2M-GB/s")
}

// BenchmarkFig3Quadrant1 .. 4: the blue/red regime quadrants (Fig 3) at the
// paper's most telling operating points.
func BenchmarkFig3Quadrant1(b *testing.B) { quadrantBench(b, hostnet.Q1, 1) }
func BenchmarkFig3Quadrant2(b *testing.B) { quadrantBench(b, hostnet.Q2, 6) }
func BenchmarkFig3Quadrant3(b *testing.B) { quadrantBench(b, hostnet.Q3, 5) }
func BenchmarkFig3Quadrant4(b *testing.B) { quadrantBench(b, hostnet.Q4, 6) }

// BenchmarkFig6DomainEvidence regenerates the §4.2 domain characterization.
func BenchmarkFig6DomainEvidence(b *testing.B) {
	opt := benchOptions()
	var ev exp.DomainEvidence
	for i := 0; i < b.N; i++ {
		ev = exp.RunFig6(opt)
	}
	b.ReportMetric(ev.UnloadedC2MRead, "c2m-read-ns")
	b.ReportMetric(ev.UnloadedC2MWrite, "c2m-write-ns")
	b.ReportMetric(ev.UnloadedP2MWrite, "p2m-write-ns")
	b.ReportMetric(float64(ev.LFBCredits), "lfb-credits")
	b.ReportMetric(float64(ev.IIOWriteCredits), "iio-wr-credits")
}

// BenchmarkFig7Quadrant1Probes regenerates the quadrant-1 root-cause probes.
func BenchmarkFig7Quadrant1Probes(b *testing.B) {
	opt := benchOptions()
	var pts []exp.QuadrantPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RunQuadrant(exp.Q1, []int{1, 6}, opt)
	}
	b.ReportMetric(pts[0].Co.C2MLat, "lat-1core-ns")
	b.ReportMetric(pts[0].Co.RowMissC2MRead, "rowmiss-co")
	b.ReportMetric(pts[0].Co.BankDevFracGE15, "bankdev-ge1.5")
}

// BenchmarkFig8Quadrant3Probes regenerates the quadrant-3 root-cause probes.
func BenchmarkFig8Quadrant3Probes(b *testing.B) {
	opt := benchOptions()
	var pts []exp.QuadrantPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RunQuadrant(exp.Q3, []int{5}, opt)
	}
	b.ReportMetric(pts[0].Co.WPQFullFrac, "wpq-full-frac")
	b.ReportMetric(pts[0].Co.WBacklog, "n-waiting")
	b.ReportMetric(pts[0].Co.P2MWriteLat, "p2m-write-ns")
	b.ReportMetric(pts[0].Co.CHAAdmitLat, "cha-admit-ns")
}

// BenchmarkFig11Formula validates the analytical model on one blue and one
// red point (Fig 11; the Fig 12 breakdown is inside the same computation).
func BenchmarkFig11Formula(b *testing.B) {
	opt := benchOptions()
	var blue, red exp.FormulaPoint
	for i := 0; i < b.N; i++ {
		blue = exp.ValidateFormula(exp.RunQuadrantPoint(exp.Q1, 2, opt), opt)
		red = exp.ValidateFormula(exp.RunQuadrantPoint(exp.Q3, 5, opt), opt)
	}
	b.ReportMetric(blue.C2MErrorPct, "q1-c2m-err-pct")
	b.ReportMetric(red.C2MErrorCHAPct, "q3-c2m-errCHA-pct")
	b.ReportMetric(red.P2MErrorPct, "q3-p2m-err-pct")
}

// BenchmarkFig12Breakdown reports the dominant formula components at the
// paper's reference points.
func BenchmarkFig12Breakdown(b *testing.B) {
	opt := benchOptions()
	var f exp.FormulaPoint
	for i := 0; i < b.N; i++ {
		f = exp.ValidateFormula(exp.RunQuadrantPoint(exp.Q1, 1, opt), opt)
	}
	b.ReportMetric(f.C2MBreakdown.WriteHoL, "writeHoL-ns")
	b.ReportMetric(f.C2MBreakdown.ReadHoL, "readHoL-ns")
	b.ReportMetric(f.C2MBreakdown.Switching, "switching-ns")
}

// BenchmarkFig13Quadrant2Probes / Fig14: the appendix quadrant deep dives.
func BenchmarkFig13Quadrant2Probes(b *testing.B) {
	opt := benchOptions()
	var pts []exp.QuadrantPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RunQuadrant(exp.Q2, []int{6}, opt)
	}
	b.ReportMetric(pts[0].Co.P2MReadsInflight, "p2m-reads-inflight")
}

func BenchmarkFig14Quadrant4Probes(b *testing.B) {
	opt := benchOptions()
	var pts []exp.QuadrantPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RunQuadrant(exp.Q4, []int{6}, opt)
	}
	b.ReportMetric(pts[0].Co.P2MReadsInflight, "p2m-reads-inflight")
	b.ReportMetric(pts[0].C2MDegradation(), "c2m-degr-x")
}

// BenchmarkFig1AppsIceLake: Redis and GAPBS against FIO on Ice Lake.
func BenchmarkFig1AppsIceLake(b *testing.B) {
	var res exp.Fig1Result
	for i := 0; i < b.N; i++ {
		res = exp.RunFig1(benchWindowOpt(30 * sim.Microsecond))
	}
	b.ReportMetric(res.Redis[1].AppDegradation(), "redis-degr-x")
	b.ReportMetric(res.GAPBS[1].AppDegradation(), "gapbs-degr-x")
	b.ReportMetric(res.GAPBS[1].P2MDegradation(), "fio-degr-x")
}

// BenchmarkFig2DDIO: the DDIO on/off comparison.
func BenchmarkFig2DDIO(b *testing.B) {
	var res exp.Fig2Result
	for i := 0; i < b.N; i++ {
		res = exp.RunFig2(benchWindowOpt(30 * sim.Microsecond))
	}
	last := len(res.GAPBSOn) - 1
	b.ReportMetric(res.GAPBSOn[last].AppDegradation(), "ddio-on-degr-x")
	b.ReportMetric(res.GAPBSOff[last].AppDegradation(), "ddio-off-degr-x")
}

// BenchmarkFig15 / 16 / 17: the Appendix B read/write-ratio grids.
func BenchmarkFig15AppsP2MWrite(b *testing.B) {
	var g exp.AppGridResult
	for i := 0; i < b.N; i++ {
		g = exp.RunFig15(benchWindowOpt(25 * sim.Microsecond))
	}
	b.ReportMetric(g.RedisOn[len(g.RedisOn)-1].AppDegradation(), "redisW-degr-x")
	b.ReportMetric(g.GAPBSOn[len(g.GAPBSOn)-1].AppDegradation(), "gapbsBC-degr-x")
}

func BenchmarkFig16AppsP2MRead(b *testing.B) {
	var g exp.AppGridResult
	for i := 0; i < b.N; i++ {
		g = exp.RunFig16(benchWindowOpt(25 * sim.Microsecond))
	}
	b.ReportMetric(g.RedisOn[len(g.RedisOn)-1].AppDegradation(), "redisR-degr-x")
	b.ReportMetric(g.GAPBSOn[len(g.GAPBSOn)-1].P2MDegradation(), "p2m-degr-x")
}

func BenchmarkFig17AppsP2MRead(b *testing.B) {
	var g exp.AppGridResult
	for i := 0; i < b.N; i++ {
		g = exp.RunFig17(benchWindowOpt(25 * sim.Microsecond))
	}
	b.ReportMetric(g.RedisOn[len(g.RedisOn)-1].AppDegradation(), "redisW-degr-x")
}

// BenchmarkFig18RDMA: the RoCE/PFC quadrants (Figs 18 and 20-24 share runs).
func BenchmarkFig18RDMA(b *testing.B) {
	opt := benchOptions()
	var blue, red []exp.RDMAQuadrantPoint
	for i := 0; i < b.N; i++ {
		blue = exp.RunRDMAQuadrant(exp.Q1, []int{3}, opt)
		red = exp.RunRDMAQuadrant(exp.Q3, []int{6}, opt)
	}
	b.ReportMetric(blue[0].C2MDegradation(), "q1-c2m-degr-x")
	b.ReportMetric(red[0].P2MDegradation(), "q3-roce-degr-x")
	b.ReportMetric(red[0].PauseFrac, "q3-pfc-pause-frac")
}

// BenchmarkFig23IIOOccupancy: microsecond-scale IIO occupancy under PFC.
func BenchmarkFig23IIOOccupancy(b *testing.B) {
	opt := benchOptions()
	var pts []exp.RDMAQuadrantPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RunRDMAQuadrant(exp.Q3, []int{5}, opt)
	}
	near := 0
	for _, s := range pts[0].IIOOccSamples {
		if s >= 80 {
			near++
		}
	}
	b.ReportMetric(float64(near)/float64(len(pts[0].IIOOccSamples)), "near-full-frac")
}

// BenchmarkFig19DCTCP: the TCP case study (Figs 19, 25, 26 share runs).
func BenchmarkFig19DCTCP(b *testing.B) {
	opt := benchOptions()
	var read, rw []exp.DCTCPPoint
	for i := 0; i < b.N; i++ {
		read = exp.RunDCTCP(false, []int{2}, opt)
		rw = exp.RunDCTCP(true, []int{4}, opt)
	}
	b.ReportMetric(read[0].MemAppDegradation(), "read-mem-degr-x")
	b.ReportMetric(rw[0].NetAppDegradation(), "rw-net-degr-x")
}

// BenchmarkFig27RDMAFormula: formula validation on RDMA (Fig 28 breakdowns
// inside).
func BenchmarkFig27RDMAFormula(b *testing.B) {
	opt := benchOptions()
	var f exp.FormulaPoint
	for i := 0; i < b.N; i++ {
		pts := exp.RunRDMAQuadrant(exp.Q3, []int{5}, opt)
		f = exp.ValidateFormula(pts[0].QuadrantPoint, opt)
	}
	b.ReportMetric(f.C2MErrorCHAPct, "c2m-errCHA-pct")
	b.ReportMetric(f.P2MErrorPct, "p2m-err-pct")
}

// BenchmarkFig29DCTCPFormula: formula validation on DCTCP (Fig 30 inside).
func BenchmarkFig29DCTCPFormula(b *testing.B) {
	opt := benchOptions()
	var f exp.DCTCPFormulaPoint
	for i := 0; i < b.N; i++ {
		pts := exp.RunDCTCP(true, []int{3}, opt)
		f = exp.ValidateDCTCPFormula(pts[0], opt)
	}
	b.ReportMetric(f.MemErrPct, "mem-err-pct")
	b.ReportMetric(f.NetC2MErrPct, "net-c2m-err-pct")
	b.ReportMetric(f.NetP2MErrPct, "net-p2m-err-pct")
}

// BenchmarkDomainCharacterization reports the §4.2 credit/latency table via
// the core abstraction.
func BenchmarkDomainCharacterization(b *testing.B) {
	var bound float64
	for i := 0; i < b.N; i++ {
		for _, d := range hostnet.CascadeLakeDomains() {
			bound += d.MaxThroughput(d.UnloadedLatency)
		}
	}
	ds := hostnet.CascadeLakeDomains()
	b.ReportMetric(ds[0].MaxThroughput(ds[0].UnloadedLatency)/1e9, "c2m-read-bound-GB/s")
	b.ReportMetric(ds[3].MaxThroughput(ds[3].UnloadedLatency)/1e9, "p2m-write-bound-GB/s")
	_ = bound
}

// BenchmarkEngineThroughput measures raw simulator performance: events per
// second on a saturated Cascade Lake host.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := hostnet.New(hostnet.CascadeLake())
		for c := 0; c < 6; c++ {
			h.AddCore(hostnet.SeqRead(h.Region(1<<30), 1<<30))
		}
		h.AddStorage(hostnet.BulkStorage(hostnet.DMAWrite, h.Region(1<<30)))
		h.Run(0, 50*sim.Microsecond)
		b.ReportMetric(float64(h.Eng.Processed()), "events/op")
	}
}

// BenchmarkHostColdSpecs runs hostbench's host-cold spec set (every
// quadrant and rdma point spec: both testbeds, Q1-Q4, 1-6 cores, default
// windows) through exp.RunSpecJSON on two goroutines sharing one RunCache,
// the shape of hostnetd's two workers. Its allocs/op and B/op are the heap
// cost of the request path; gc/op counts the collections they cause.
// BENCH_engine.json records it with the command to rerun it.
func BenchmarkHostColdSpecs(b *testing.B) {
	var specs []exp.Spec
	for _, preset := range []string{"cascadelake", "icelake"} {
		for _, e := range []string{"quadrant", "rdma"} {
			for q := 1; q <= 4; q++ {
				for c := 1; c <= 6; c++ {
					specs = append(specs, exp.Spec{Experiment: e, Preset: preset, Quadrant: q, Cores: []int{c}})
				}
			}
		}
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		opt := exp.Defaults()
		opt.Parallelism = 1
		opt.Runs = exp.NewRunCache()
		next := make(chan exp.Spec)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range next {
					if _, err := exp.RunSpecJSON(s, opt); err != nil {
						b.Error(err)
					}
				}
			}()
		}
		for _, s := range specs {
			next <- s
		}
		close(next)
		wg.Wait()
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}

var _ io.Writer // keep io imported for render smoke below

// BenchmarkRenderTables exercises the text-rendering path end to end.
func BenchmarkRenderTables(b *testing.B) {
	opt := benchOptions()
	res := map[hostnet.Quadrant][]exp.QuadrantPoint{
		exp.Q1: exp.RunQuadrant(exp.Q1, []int{1, 2}, opt),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.RenderQuadrants(io.Discard, res)
	}
}
