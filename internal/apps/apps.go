// Package apps models the real applications of the paper's §2.1 at the
// fidelity that matters for host-network contention: each app's memory
// access intensity, pattern, and read/write mix.
//
//   - Redis (YCSB-C / 100% GET, and the Appendix B 100% SET variant): a
//     closed-loop query engine per core. Each query spends CPU time, then
//     walks a short dependent miss chain (hash-table lookup), then touches
//     the value's cachelines; SETs additionally dirty the value lines,
//     producing ~50/50 read/write traffic.
//   - GAPBS PageRank: memory-bound uniform-random reads over a shared graph
//     (~5 GB footprint, ~100% LLC miss).
//   - GAPBS Betweenness Centrality: the suite's most write-heavy algorithm:
//     ~80/20 read/write random traffic with more compute per access.
//   - FIO lives in internal/periph (it is a peripheral workload).
package apps

import (
	"math/rand/v2"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// RedisConfig parameterizes the Redis model.
type RedisConfig struct {
	// ComputeTime is the per-query CPU time outside memory stalls (command
	// parsing, hashing, socket work via Unix domain sockets).
	ComputeTime sim.Time
	// ChainMisses is the dependent-miss depth of the keyspace lookup.
	ChainMisses int
	// ValueLines is the number of cachelines in the value (1 KB = 16).
	ValueLines int
	// WriteQueries makes every query a SET (Redis-Write): the value lines
	// are written (RFO read + writeback) instead of just read.
	WriteQueries bool
	// BufBytes is the per-instance keyspace footprint (1M keys x ~1KB).
	BufBytes int64
	Seed     uint64
}

// DefaultRedisConfig calibrates the model so that, like the paper's YCSB-C
// setup (>95% miss ratio, pointer-chasing lookups, cold 1 KB value copies),
// most of the query's critical path is memory stalls.
func DefaultRedisConfig() RedisConfig {
	return RedisConfig{
		ComputeTime: 100 * sim.Nanosecond,
		ChainMisses: 5,
		ValueLines:  16,
		BufBytes:    1 << 30,
		Seed:        11,
	}
}

// Redis is one server-core instance (the standard sharded deployment runs
// one instance per core, each with a private keyspace).
type Redis struct {
	cfg  RedisConfig
	base mem.Addr
	rng  *rand.Rand

	phase     int // 0 compute, 1 chain, 2 value
	readyAt   sim.Time
	chainLeft int
	valueLeft int
	valueBase mem.Addr
	valueEnd  mem.Addr
	pendingWB []mem.Addr
	// outstanding tracks in-flight value accesses; the query advances to
	// the next one once all complete.
	outstanding int
	issuedAll   bool

	queries *telemetry.Counter
}

// NewRedis builds an instance over a private keyspace region.
func NewRedis(eng *sim.Engine, cfg RedisConfig, base mem.Addr) *Redis {
	if cfg.ChainMisses < 1 || cfg.ValueLines < 1 {
		panic("apps: redis needs at least one chain miss and one value line")
	}
	return &Redis{
		cfg:     cfg,
		base:    base,
		rng:     sim.RNG(cfg.Seed),
		queries: telemetry.NewCounter(eng),
	}
}

// Queries exposes the completed-query counter (QPS when rated).
func (r *Redis) Queries() *telemetry.Counter { return r.queries }

func (r *Redis) randomLine() mem.Addr {
	lines := r.cfg.BufBytes / mem.LineSize
	return r.base + mem.Addr(r.rng.Int64N(lines)*mem.LineSize)
}

// Poll implements cpu.Generator.
func (r *Redis) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	if len(r.pendingWB) > 0 {
		a := r.pendingWB[0]
		r.pendingWB = append(r.pendingWB[:0], r.pendingWB[1:]...)
		return cpu.Access{Addr: a, Kind: mem.Write}, now, true
	}
	switch r.phase {
	case 0: // compute
		if r.readyAt == 0 {
			r.readyAt = now + r.cfg.ComputeTime
		}
		if r.readyAt > now {
			return cpu.Access{}, r.readyAt, true
		}
		r.readyAt = 0
		r.phase = 1
		r.chainLeft = r.cfg.ChainMisses
		return r.Poll(now)
	case 1: // dependent chain: one miss at a time
		if r.chainLeft == 0 {
			r.phase = 2
			r.valueLeft = r.cfg.ValueLines
			r.valueBase = r.randomLine()
			r.valueEnd = r.valueBase + mem.Addr(r.cfg.ValueLines*mem.LineSize)
			r.issuedAll = false
			return r.Poll(now)
		}
		if r.outstanding > 0 {
			return cpu.Access{}, 0, false // wait for the previous miss
		}
		r.chainLeft--
		r.outstanding++
		return cpu.Access{Addr: r.randomLine(), Kind: mem.Read}, now, true
	default: // value access: ValueLines parallel reads (RFOs for SETs)
		if r.valueLeft == 0 {
			r.issuedAll = true
			if r.outstanding > 0 {
				return cpu.Access{}, 0, false // drain the query
			}
			r.queries.Inc()
			r.phase = 0
			return r.Poll(now)
		}
		r.valueLeft--
		r.outstanding++
		a := r.valueBase + mem.Addr((r.cfg.ValueLines-1-r.valueLeft)*mem.LineSize)
		return cpu.Access{Addr: a, Kind: mem.Read}, now, true
	}
}

// OnComplete implements cpu.Generator.
func (r *Redis) OnComplete(acc cpu.Access, now sim.Time) {
	if acc.Kind == mem.Write {
		return
	}
	r.outstanding--
	if r.cfg.WriteQueries && acc.Addr >= r.valueBase && acc.Addr < r.valueEnd {
		// SET: the value line just RFO'd will be dirtied and written back.
		r.pendingWB = append(r.pendingWB, acc.Addr)
	}
}

// NewGAPBSPageRank returns the PR workload: a shared ~5 GB graph read with
// uniform-random accesses at full memory-level parallelism.
func NewGAPBSPageRank(base mem.Addr, seed uint64) cpu.Generator {
	return workload.NewRandRead(base, 5<<30, seed)
}

// NewGAPBSBC returns the Betweenness Centrality workload: ~20% random
// writes, with extra per-access compute that lowers its bandwidth demand
// per core relative to PageRank.
func NewGAPBSBC(base mem.Addr, seed uint64) cpu.Generator {
	return workload.NewMix(base, 5<<30, 0.20, 12*sim.Nanosecond, seed)
}
