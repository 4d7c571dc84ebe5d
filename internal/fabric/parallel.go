package fabric

import (
	"cmp"
	"slices"

	"repro/internal/sim"
)

// Conservative parallel DES (SimBricks-style): a Parallel rack gives every
// host (plus its NIC) a private engine and the ToR its own, then advances all
// partitions in lockstep rounds bounded by the fabric's lookahead — the
// smallest cross-partition latency (host<->ToR wire propagation, PFC pause
// reaction). Within a round no partition can affect another, so the
// partitions step one after another, in partition order; at each round
// barrier the cross-partition messages emitted during the round are
// injected into their target engines in a canonical order. Every
// per-partition execution and every injection sequence is a pure function of
// the configuration, so results are byte-identical from run to run and at
// any sweep parallelism (TestParallelRackRepeatIdentity, and RunSpecJSON
// identity in internal/exp).
//
// A partitioned rack is a *different discretization* than the shared-engine
// Fabric: pause frames carry the value decided at emission (the shared
// engine's pause events read the hysteresis state at fire time), and
// same-instant events in different partitions are ordered per-engine rather
// than by one global sequence. Both are valid physics and they agree closely
// (pinned within tolerance by TestParallelMatchesSharedPhysics), but they are
// not bit-equal — which is why partitioning is a spec-level mode
// (FabricSpec.Partitioned).
//
// Fault injection and auditing need a single rack-wide observer and are not
// supported here; faulted or audited runs use the shared-engine Fabric.

// Cross-partition message kinds. Each names the action performed on the
// target partition's engine at deliverAt.
const (
	mArrive      uint8 = iota // host -> switch: line lands at the ingress
	mWireDeliver              // switch -> host: line lands off the egress wire
	mEgressPause              // host -> switch: PFC toward the egress drain
	mTxPause                  // switch -> host: PFC toward the host's TX
)

// xmsg is one cross-partition message. It is an immutable value once posted,
// and it carries no pointers into the source partition.
type xmsg struct {
	deliverAt sim.Time
	dst       int32 // partition index (0 = switch, 1+i = host i)
	kind      uint8
	port      int32 // NIC/port index the message concerns
	val       int32 // payload: destination host (mArrive) or 0/1 pause state
}

// Parallel is a partitioned rack: the same topology Fabric assembles on one
// engine, split across len(Hosts)+1 engines that advance in conservative
// lookahead rounds.
type Parallel struct {
	rack

	// engines[0] drives the switch, engines[1+i] drives host i and its NIC.
	engines   []*sim.Engine
	lookahead sim.Time
	now       sim.Time // common round boundary all engines have reached

	// outbox collects the messages emitted during the current round. The
	// partitions step in order, so it fills in (source partition, emission)
	// order; it is reused across rounds.
	outbox []xmsg

	deliverFn sim.EventFunc
}

// NewParallel assembles a partitioned rack. The configuration must be
// fault-free (fault injection needs the shared-engine Fabric) and the audit
// section is ignored for the same reason.
func NewParallel(cfg Config) *Parallel {
	pf := &Parallel{rack: newRack(cfg)}
	if len(cfg.Faults) > 0 {
		panic("fabric: partitioned rack does not support fault injection; use fabric.New")
	}
	la := min(cfg.NIC.PropDelay, cfg.NIC.PauseDelay, cfg.Switch.PauseDelay)
	if la <= 0 {
		panic("fabric: partitioned rack needs a positive lookahead (wire and pause delays)")
	}
	pf.lookahead = la
	pf.deliverFn = pf.deliverEvent
	pf.engines = []*sim.Engine{sim.New()}
	pf.Switch = NewSwitch(pf.engines[0], pf.Cfg.Switch, nil)
	pf.Switch.par = pf
	for i := 0; i < cfg.Hosts; i++ {
		eng := sim.New()
		pf.engines = append(pf.engines, eng)
		pf.addHost(eng, nil, nil, i).par = pf
	}
	return pf
}

// post records a cross-partition message emitted on engine eng during the
// current round, to be injected at the next barrier. The latency must be at
// least the lookahead, which every caller satisfies by construction
// (lat is PropDelay or a PauseDelay, and lookahead is their minimum).
func (pf *Parallel) post(eng *sim.Engine, dst int, lat sim.Time, kind uint8, port int, val int32) {
	pf.outbox = append(pf.outbox, xmsg{
		deliverAt: eng.Now() + lat,
		dst:       int32(dst),
		kind:      kind,
		port:      int32(port),
		val:       val,
	})
	if kind == mArrive || kind == mWireDeliver {
		pf.inTransit++
	}
}

// deliverEvent runs on the target partition's engine at the message's
// deliverAt instant.
func (pf *Parallel) deliverEvent(arg any) {
	m := arg.(xmsg)
	switch m.kind {
	case mArrive:
		pf.inTransit--
		pf.Switch.Arrive(int(m.port), m.val)
	case mWireDeliver:
		pf.inTransit--
		pf.NICs[m.port].rxLand()
	case mEgressPause:
		pf.Switch.setEgressPause(int(m.port), m.val != 0)
	case mTxPause:
		pf.NICs[m.port].setTxPaused(m.val != 0)
	}
}

// flush injects the round's messages into their target engines in
// canonical order — (deliverAt, source partition, emission order). The
// outbox already holds them in (source partition, emission) order, so a
// stable sort by deliverAt realizes exactly that key: ties across
// partitions break by partition index.
func (pf *Parallel) flush() {
	slices.SortStableFunc(pf.outbox, func(a, b xmsg) int { return cmp.Compare(a.deliverAt, b.deliverAt) })
	for _, m := range pf.outbox {
		pf.engines[m.dst].AtFunc(m.deliverAt, pf.deliverFn, m)
	}
	pf.outbox = pf.outbox[:0]
}

// RunUntil advances the whole rack to absolute time t (events at exactly t
// included, matching Engine.RunUntil), in lookahead-bounded rounds with a
// message barrier after each.
func (pf *Parallel) RunUntil(t sim.Time) {
	for pf.now < t {
		end := pf.now + pf.lookahead
		var stepTo sim.Time
		if end >= t {
			// Final (possibly partial) round: run events through t itself so
			// the boundary matches the shared-engine Run semantics, leaving
			// every engine's clock exactly at t.
			stepTo, pf.now = t, t
		} else {
			// Interior round [pf.now, end): integer picosecond timestamps make
			// "events < end" exactly "events <= end-1". Messages posted during
			// the round deliver at >= pf.now + lookahead = end, so injecting
			// them at the barrier is always in the target's future.
			stepTo, pf.now = end-1, end
		}
		for _, e := range pf.engines {
			e.RunUntil(stepTo)
		}
		pf.flush()
	}
}

// Run warms the rack up for `warmup`, resets all probes, then runs the
// measurement window — the partitioned counterpart of Fabric.Run.
func (pf *Parallel) Run(warmup, window sim.Time) {
	pf.RunUntil(pf.now + warmup)
	pf.ResetStats()
	pf.RunUntil(pf.now + window)
}
