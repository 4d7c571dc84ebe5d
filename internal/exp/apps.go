package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/host"
	"repro/internal/periph"
)

// App identifies one of the paper's C2M applications.
type App int

// The C2M applications of §2.1 and Appendix B.
const (
	RedisRead  App = iota // YCSB-C, 100% GET
	RedisWrite            // 100% SET (Appendix B)
	GAPBSPR               // PageRank on a random graph
	GAPBSBC               // Betweenness Centrality (write-heavy variant)
)

// String names the app like the paper.
func (a App) String() string {
	switch a {
	case RedisRead:
		return "Redis-Read"
	case RedisWrite:
		return "Redis-Write"
	case GAPBSPR:
		return "GAPBS-PR"
	default:
		return "GAPBS-BC"
	}
}

// appHost builds a host running `cores` instances of the app and returns a
// metric function (QPS for Redis, aggregate line rate for GAPBS — the
// inverse of execution time for fixed work).
func appHost(a App, cores int, opt Options) (*host.Host, func() float64) {
	h := opt.newHost()
	switch a {
	case RedisRead, RedisWrite:
		var instances []*apps.Redis
		for i := 0; i < cores; i++ {
			cfg := apps.DefaultRedisConfig()
			cfg.WriteQueries = a == RedisWrite
			cfg.Seed = uint64(100 + i)
			r := apps.NewRedis(h.Eng, cfg, h.Region(cfg.BufBytes))
			instances = append(instances, r)
			h.AddCore(r)
		}
		return h, func() float64 {
			var qps float64
			for _, r := range instances {
				qps += r.Queries().RatePerSecond()
			}
			return qps
		}
	case GAPBSPR:
		// A single graph instance shared across cores.
		base := h.Region(5 << 30)
		for i := 0; i < cores; i++ {
			h.AddCore(apps.NewGAPBSPageRank(base, uint64(200+i)))
		}
	default:
		base := h.Region(5 << 30)
		for i := 0; i < cores; i++ {
			h.AddCore(apps.NewGAPBSBC(base, uint64(300+i)))
		}
	}
	return h, h.C2MBW
}

// AppPoint is one (app, cores, DDIO) colocation data point.
type AppPoint struct {
	App   App
	Cores int
	DDIO  bool

	AppIso, AppCo float64 // app metric (QPS or aggregate line rate)
	P2MIso, P2MCo float64 // device throughput
	Iso, Co       Measure
}

// AppDegradation reports isolated/colocated app performance; for GAPBS this
// equals the paper's slowdown (colocated/isolated execution time).
func (p AppPoint) AppDegradation() float64 { return degradation(p.AppIso, p.AppCo) }

// P2MDegradation reports isolated/colocated device throughput.
func (p AppPoint) P2MDegradation() float64 { return degradation(p.P2MIso, p.P2MCo) }

// String renders one row.
func (p AppPoint) String() string {
	return fmt.Sprintf("%s cores=%d ddio=%v: app %.2fx, p2m %.2fx", p.App, p.Cores, p.DDIO,
		p.AppDegradation(), p.P2MDegradation())
}

// RunAppColocation sweeps core counts for one app against one FIO direction;
// the device baseline and the per-count points run on the options' pool.
func RunAppColocation(a App, dir periph.Direction, coreCounts []int, opt Options) []AppPoint {
	var p2mIso float64
	// The device baseline is independent of the app core count: the P2M
	// run of the quadrant whose device moves data in dir.
	devQ := Q2
	if dir == periph.DMAWrite {
		devQ = Q1
	}
	pts := sweep(opt, coreCounts, func() { p2mIso = quadrantRun(opt, devQ, 0, true).P2MBW }, func(_, n int) AppPoint {
		p := AppPoint{App: a, Cores: n, DDIO: opt.DDIO}
		iso, metric := appHost(a, n, opt)
		iso.Run(opt.Warmup, opt.Window)
		p.AppIso = metric()
		p.Iso = snapshot(iso)

		co, coMetric := appHost(a, n, opt)
		co.AddStorage(periph.BulkConfig(dir, co.Region(1<<30)))
		co.Run(opt.Warmup, opt.Window)
		p.AppCo = coMetric()
		p.P2MCo = co.P2MBW()
		p.Co = snapshot(co)
		return p
	})
	for i := range pts {
		pts[i].P2MIso = p2mIso
	}
	return pts
}

// Fig1Result holds the Ice Lake colocation study (Fig 1 a-d).
type Fig1Result struct {
	Redis []AppPoint
	GAPBS []AppPoint
}

// RunFig1 reproduces Fig 1: Redis and GAPBS-PR colocated with bulk FIO reads
// (P2M writes) on the Ice Lake preset, DDIO on, 4 cores dedicated to FIO.
// The preset and DDIO setting are fixed by the figure; window, warmup,
// parallelism, audit, and cancellation come from opt.
func RunFig1(opt Options) Fig1Result {
	opt.Preset = host.IceLake
	opt.DDIO = true
	var res Fig1Result
	pdo(opt,
		func() { res.Redis = RunAppColocation(RedisRead, periph.DMAWrite, fig1Cores, opt) },
		func() { res.GAPBS = RunAppColocation(GAPBSPR, periph.DMAWrite, fig1Cores, opt) },
	)
	return res
}

var fig1Cores = []int{2, 4, 8, 16, 24, 28}

// fig1Tasks mirrors RunFig1: two app sweeps fanned out in parallel.
func fig1Tasks(Spec) int { return 2 + 2*sweepTasks(len(fig1Cores)) }

// Fig2Result pairs DDIO-on and DDIO-off sweeps (Fig 2 a-d, Cascade Lake).
type Fig2Result struct {
	RedisOn, RedisOff []AppPoint
	GAPBSOn, GAPBSOff []AppPoint
}

// RunFig2 reproduces Fig 2: the DDIO on/off comparison on Cascade Lake with
// the P2M-Write FIO workload (2 cores dedicated to FIO). The preset and the
// DDIO pairing are fixed by the figure; everything else comes from opt.
func RunFig2(opt Options) Fig2Result {
	var r Fig2Result
	r.RedisOn, r.RedisOff, r.GAPBSOn, r.GAPBSOff = ddioGrid(RedisRead, GAPBSPR, periph.DMAWrite, fig2Cores, opt)
	return r
}

var fig2Cores = []int{1, 2, 3, 4, 5, 6}

func fig2Tasks(Spec) int { return ddioGridTasks(fig2Cores) }

// ddioGrid runs two apps against one FIO direction with DDIO on and off on
// Cascade Lake (Fig 2, Appendix B): four app sweeps fanned out in parallel.
func ddioGrid(redis, gapbs App, dir periph.Direction, cores []int, opt Options) (redisOn, redisOff, gapbsOn, gapbsOff []AppPoint) {
	on := opt
	on.Preset = host.CascadeLake
	on.DDIO = true
	off := on
	off.DDIO = false
	pdo(on,
		func() { redisOn = RunAppColocation(redis, dir, cores, on) },
		func() { redisOff = RunAppColocation(redis, dir, cores, off) },
		func() { gapbsOn = RunAppColocation(gapbs, dir, cores, on) },
		func() { gapbsOff = RunAppColocation(gapbs, dir, cores, off) },
	)
	return redisOn, redisOff, gapbsOn, gapbsOff
}

// ddioGridTasks mirrors ddioGrid.
func ddioGridTasks(cores []int) int { return 4 + 4*sweepTasks(len(cores)) }

// AppGridResult is one Appendix B figure: two apps x DDIO on/off against a
// fixed P2M direction.
type AppGridResult struct {
	Fig               string
	RedisOn, RedisOff []AppPoint
	GAPBSOn, GAPBSOff []AppPoint
}

func runAppGrid(fig string, redis, gapbs App, dir periph.Direction, opt Options) AppGridResult {
	r := AppGridResult{Fig: fig}
	r.RedisOn, r.RedisOff, r.GAPBSOn, r.GAPBSOff = ddioGrid(redis, gapbs, dir, appGridCores, opt)
	return r
}

var appGridCores = []int{1, 2, 4, 6}

func appGridTasks(Spec) int { return ddioGridTasks(appGridCores) }

// RunFig15 reproduces Appendix B Fig 15: Redis-Write and GAPBS-BC colocated
// with P2M-Write.
func RunFig15(opt Options) AppGridResult {
	return runAppGrid("fig15", RedisWrite, GAPBSBC, periph.DMAWrite, opt)
}

// RunFig16 reproduces Appendix B Fig 16: Redis-Read and GAPBS-PR colocated
// with P2M-Read.
func RunFig16(opt Options) AppGridResult {
	return runAppGrid("fig16", RedisRead, GAPBSPR, periph.DMARead, opt)
}

// RunFig17 reproduces Appendix B Fig 17: Redis-Write and GAPBS-BC colocated
// with P2M-Read.
func RunFig17(opt Options) AppGridResult {
	return runAppGrid("fig17", RedisWrite, GAPBSBC, periph.DMARead, opt)
}
