package fabric

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/host"
	"repro/internal/sim"
)

// Conservative parallel DES (SimBricks-style): a Parallel rack gives every
// host (plus its NIC) a private engine and the ToR its own, then advances all
// partitions in lockstep rounds bounded by the fabric's lookahead — the
// smallest cross-partition latency (host<->ToR wire propagation, PFC pause
// reaction). Within a round no partition can affect another, so partitions
// run concurrently; at each round barrier the cross-partition messages
// emitted during the round are merged in a canonical order and injected into
// their target engines. Every per-partition execution and every injection
// sequence is a pure function of the configuration, so the result is
// byte-identical at any worker count — 1, 2, or N goroutines — which is the
// pinned invariant (TestParallelRackWorkerIdentity, and RunSpecJSON identity
// in internal/exp).
//
// A partitioned rack is a *different discretization* than the shared-engine
// Fabric: pause frames carry the value decided at emission (the shared
// engine's pause events read the hysteresis state at fire time), and
// same-instant events in different partitions are ordered per-engine rather
// than by one global sequence. Both are valid physics and they agree closely
// (pinned within tolerance by TestParallelMatchesSharedPhysics), but they are
// not bit-equal — which is why partitioning is a spec-level mode
// (FabricSpec.Partitioned) while the worker count is execution-only.
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
	src, dst  int32 // partition indices (0 = switch, 1+i = host i)
	kind      uint8
	port      int32 // NIC/port index the message concerns
	val       int32 // payload: destination host (mArrive) or 0/1 pause state
}

// Parallel is a partitioned rack: the same topology Fabric assembles on one
// engine, split across len(Hosts)+1 engines that advance in conservative
// lookahead rounds.
type Parallel struct {
	Cfg    Config
	Switch *Switch
	Hosts  []*host.Host
	NICs   []*NIC

	// engines[0] drives the switch, engines[1+i] drives host i and its NIC.
	engines   []*sim.Engine
	workers   int
	lookahead sim.Time
	now       sim.Time // common round boundary all engines have reached

	// outbox[p] collects messages partition p emitted during the current
	// round; only partition p appends, so rounds need no locks.
	outbox [][]xmsg
	// linesPosted[p] / linesDelivered[p] account line-carrying messages
	// (mArrive, mWireDeliver) so conservation can count lines that are
	// in flight between partitions. Each slot has a single writer: the
	// emitting (resp. target) partition.
	linesPosted    []int64
	linesDelivered []int64

	deliverFn sim.EventFunc
}

// NewParallel assembles a partitioned rack. workers bounds the goroutines
// stepping partitions each round: <= 1 runs rounds serially, larger values
// are capped by the partition count. The configuration must be fault-free
// (fault injection needs the shared-engine Fabric) and the audit section is
// ignored for the same reason.
func NewParallel(cfg Config, workers int) *Parallel {
	if cfg.Hosts < 2 {
		panic("fabric: need at least 2 hosts")
	}
	if len(cfg.Faults) > 0 {
		panic("fabric: partitioned rack does not support fault injection; use fabric.New")
	}
	if cfg.Switch.Ports == 0 {
		cfg.Switch.Ports = cfg.Hosts
	}
	if cfg.Switch.Ports < cfg.Hosts {
		panic("fabric: switch has fewer ports than hosts")
	}
	la := cfg.NIC.PropDelay
	if cfg.NIC.PauseDelay < la {
		la = cfg.NIC.PauseDelay
	}
	if cfg.Switch.PauseDelay < la {
		la = cfg.Switch.PauseDelay
	}
	if la <= 0 {
		panic("fabric: partitioned rack needs a positive lookahead (wire and pause delays)")
	}
	nparts := cfg.Hosts + 1
	if workers < 1 {
		workers = 1
	}
	if workers > nparts {
		workers = nparts
	}
	pf := &Parallel{
		Cfg:            cfg,
		workers:        workers,
		lookahead:      la,
		engines:        make([]*sim.Engine, nparts),
		outbox:         make([][]xmsg, nparts),
		linesPosted:    make([]int64, nparts),
		linesDelivered: make([]int64, nparts),
	}
	pf.deliverFn = pf.deliverEvent
	pf.engines[0] = sim.New()
	pf.Switch = NewSwitch(pf.engines[0], cfg.Switch, nil)
	pf.Switch.par = pf
	for i := 0; i < cfg.Hosts; i++ {
		eng := sim.New()
		pf.engines[1+i] = eng
		hcfg := cfg.Host
		hcfg.Name = fmt.Sprintf("%s/h%d", hcfg.Name, i)
		h := host.NewOn(eng, nil, nil, fmt.Sprintf("h%d", i), hcfg)
		base := h.Region(cfg.NIC.BufBytes)
		nic := NewNIC(eng, cfg.NIC, h.IIO, pf.Switch, i, NodeID{Host: i}, base, nil)
		nic.par = pf
		pf.Switch.attach(i, nic)
		pf.Hosts = append(pf.Hosts, h)
		pf.NICs = append(pf.NICs, nic)
	}
	return pf
}

// Lookahead reports the round length (the minimum cross-partition latency).
func (pf *Parallel) Lookahead() sim.Time { return pf.lookahead }

// Now reports the common round boundary every partition has reached.
func (pf *Parallel) Now() sim.Time { return pf.now }

// AddFlow offers a stream from host src to host dst at `rate` (fraction of
// NIC line rate in (0, 1]).
func (pf *Parallel) AddFlow(src, dst int, rate float64) {
	if src == dst {
		panic("fabric: flow source equals destination")
	}
	pf.NICs[src].AddFlow(dst, rate)
}

// AddIncast points hosts 1..senders at host recv, each at full line rate.
func (pf *Parallel) AddIncast(recv, senders int) {
	added := 0
	for i := 0; added < senders; i++ {
		if i == recv {
			continue
		}
		pf.AddFlow(i, recv, 1)
		added++
	}
}

// post records a cross-partition message emitted by partition src during the
// current round, to be injected at the next barrier. The latency must be at
// least the lookahead, which every caller satisfies by construction
// (lat is PropDelay or a PauseDelay, and lookahead is their minimum).
func (pf *Parallel) post(src, dst int, lat sim.Time, kind uint8, port int, val int32) {
	m := xmsg{
		deliverAt: pf.engines[src].Now() + lat,
		src:       int32(src),
		dst:       int32(dst),
		kind:      kind,
		port:      int32(port),
		val:       int32(val),
	}
	pf.outbox[src] = append(pf.outbox[src], m)
	if kind == mArrive || kind == mWireDeliver {
		pf.linesPosted[src]++
	}
}

// deliverEvent runs on the target partition's engine at the message's
// deliverAt instant.
func (pf *Parallel) deliverEvent(arg any) {
	m := arg.(xmsg)
	switch m.kind {
	case mArrive:
		pf.linesDelivered[m.dst]++
		pf.Switch.Arrive(int(m.port), m.val)
	case mWireDeliver:
		pf.linesDelivered[m.dst]++
		pf.NICs[m.port].rxLand()
	case mEgressPause:
		pf.Switch.setEgressPause(int(m.port), m.val != 0)
	case mTxPause:
		pf.NICs[m.port].setTxPaused(m.val != 0)
	}
}

// flush merges the round's outboxes in canonical order — (deliverAt, source
// partition, emission order) — and injects each message into its target
// engine. The merge happens at a barrier (single-threaded), and the order is
// independent of how partitions were scheduled onto workers, so injection
// sequence numbers (and therefore all downstream event ordering) are
// identical at any worker count. Concatenating in partition order and
// sorting stably by deliverAt realizes exactly the canonical key: per-
// partition emission order is preserved, ties across partitions break by
// partition index.
func (pf *Parallel) flush() {
	var all []xmsg
	for p := range pf.outbox {
		all = append(all, pf.outbox[p]...)
		pf.outbox[p] = pf.outbox[p][:0]
	}
	if len(all) == 0 {
		return
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].deliverAt < all[j].deliverAt })
	for _, m := range all {
		pf.engines[m.dst].AtFunc(m.deliverAt, pf.deliverFn, m)
	}
}

// step advances every partition's engine to stepTo (inclusive), using the
// configured worker pool. Partition executions are independent within a
// round, so the assignment of partitions to workers cannot affect results.
func (pf *Parallel) step(stepTo sim.Time) {
	if pf.workers <= 1 {
		for _, e := range pf.engines {
			e.RunUntil(stepTo)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < pf.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pf.engines) {
					return
				}
				pf.engines[i].RunUntil(stepTo)
			}
		}()
	}
	wg.Wait()
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
		pf.step(stepTo)
		pf.flush()
	}
}

// ResetStats starts a fresh measurement window on every probe in the rack.
func (pf *Parallel) ResetStats() {
	for _, h := range pf.Hosts {
		h.ResetStats()
	}
	for _, n := range pf.NICs {
		n.ResetStats()
	}
	pf.Switch.ResetStats()
}

// Run warms the rack up for `warmup`, resets all probes, then runs the
// measurement window — the partitioned counterpart of Fabric.Run.
func (pf *Parallel) Run(warmup, window sim.Time) {
	pf.RunUntil(pf.now + warmup)
	pf.ResetStats()
	pf.RunUntil(pf.now + window)
}

// InFlight reports lines currently between a sender's TX and delivery,
// including lines riding cross-partition messages.
func (pf *Parallel) InFlight() int64 {
	var q int64
	for _, n := range pf.NICs {
		q += n.queued()
	}
	q += pf.Switch.queued()
	for p := range pf.linesPosted {
		q += pf.linesPosted[p] - pf.linesDelivered[p]
	}
	return q
}

// Conservation checks the rack-wide line-conservation invariant at a round
// boundary: every line ever emitted is on a wire (a posted, undelivered
// message), in a queue, in flight inside a host, delivered, or dropped.
func (pf *Parallel) Conservation() (bool, string) {
	var sent, acct int64
	for _, n := range pf.NICs {
		sent += n.sentTotal
		acct += n.queued() + n.deliveredTotal + n.dropTotal
	}
	acct += pf.Switch.queued() + pf.Switch.dropTotal
	for p := range pf.linesPosted {
		acct += pf.linesPosted[p] - pf.linesDelivered[p]
	}
	if sent != acct {
		return false, fmt.Sprintf("emitted %d lines but account for %d", sent, acct)
	}
	return true, ""
}
