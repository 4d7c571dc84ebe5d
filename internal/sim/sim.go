// Package sim provides the discrete-event simulation engine used by every
// component of the host-network simulator.
//
// Time is an integer count of picoseconds, which keeps all timing algebra
// exact: DRAM burst durations, PCIe serialization delays, and mode-switch
// penalties compose without floating-point drift. Events fire in (time, seq)
// order, so two events scheduled for the same instant run in scheduling
// order, making whole-simulation runs fully deterministic for a given seed.
//
// The engine is allocation-free in steady state and its scheduling structure
// is split in four:
//
//   - a flat, pointer-free 4-ary min-heap of (at, seq, slot) nodes — sifts
//     move 24-byte scalar records and never touch a pointer, so they incur
//     no GC write barriers;
//   - a side slot table carrying each event's (fn, arg) pair, indexed by the
//     node's slot id, with a LIFO free list;
//   - a same-instant FIFO ring for events scheduled at exactly the current
//     time (a large fraction of all pushes: completions that immediately
//     kick a scheduler). Those never need heap ordering — within one
//     instant, seq order is insertion order — so they bypass the heap
//     entirely;
//   - lanes (see Lane): rings for the events of one fixed-latency hop,
//     whose times never decrease. Only a lane's head is a heap node, so
//     most pipeline events never enter the heap, and dispatching a head
//     costs one sift-down instead of a pop and a push.
//
// None of these can change the order events fire in. Every event, on any
// path, takes one sequence number when it is scheduled, and dispatch always
// picks the least (at, seq) among the FIFO's front and the heap's root. A
// lane holds its entries in (at, seq) order, so its head is its least entry
// and the heap sees every lane's minimum; a lane call that would break that
// order (earlier than the lane's last entry) takes the heap path instead.
//
// The slot indirection also gives the engine true decrease-key: a Waker that
// wants an earlier callback reschedules its existing event in place instead
// of pushing a superseding duplicate and letting the stale one fire as a
// no-op. Waker events therefore stay on the heap. AtFunc/AfterFunc carry
// callbacks as a (func(arg any), arg) pair so hot components schedule with
// a long-lived handler plus a pooled or already-allocated argument instead
// of a fresh closure; a cold call site may pass a func(any) literal and a
// nil arg.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxNanoseconds is the largest nanosecond count a Time can hold (about 107
// simulated days). A larger count wraps when converted with
// Time(ns) * Nanosecond, so inputs given in nanoseconds are validated
// against it.
const MaxNanoseconds = int64(math.MaxInt64 / Nanosecond)

// Nanoseconds reports t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a float64 count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with a unit chosen by magnitude.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	}
}

// EventFunc is an event callback. The argument is whatever was passed to
// AtFunc/AfterFunc, letting a single long-lived function value serve every
// scheduling of a component's handler (bound method values, package-level
// dispatchers) with the per-event state carried in arg.
type EventFunc func(arg any)

// node is one heap entry: pointer-free so sifts never incur GC write
// barriers. slot indexes the engine's side table holding (fn, arg). A lane
// node stands for its lane's head entry; its slot is the lane's permanent
// one, whose arg is the *Lane.
type node struct {
	at   Time
	seq  uint64
	slot int32
	lane bool
}

// eslot carries an event's callback and argument, referenced by slot id.
type eslot struct {
	fn  EventFunc
	arg any
}

// fent is one same-instant FIFO entry; its timestamp is the engine's fifoAt.
type fent struct {
	seq  uint64
	slot int32
}

// pos sentinels for slots not resident in the heap.
const (
	posFIFO int32 = -1 // slot queued in the same-instant FIFO
	posFree int32 = -2 // slot on the free list
)

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is ready to use. Engines are not safe for concurrent use;
// the simulator is deliberately single-threaded so that runs are reproducible.
type Engine struct {
	now  Time
	seq  uint64
	nRun uint64

	nodes []node  // flat 4-ary min-heap ordered by (at, seq)
	slots []eslot // slot id -> (fn, arg)
	free  []int32 // LIFO free list of slot ids
	pos   []int32 // slot id -> heap index, posFIFO, or posFree

	// Same-instant FIFO: events scheduled at exactly the current time, in
	// insertion (= seq) order. The FIFO always drains before the clock
	// advances, so every entry shares the timestamp fifoAt == now.
	fifo     []fent // power-of-two ring
	fifoHead int
	fifoLen  int
	fifoAt   Time

	// laneQueued counts lane entries queued behind their lane's head (the
	// heads themselves are heap nodes).
	laneQueued int

	// Event-cadence hook (see SetEventHook). hook == nil is the common case
	// and costs Step a single untaken branch.
	hook      func()
	hookEvery uint64
	hookLeft  uint64
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed reports the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// Pending reports the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.nodes) + e.fifoLen + e.laneQueued }

// The heap is 4-ary: children of node i are 4i+1..4i+4, parent (i-1)/4.
// Compared to a binary heap this halves tree depth (fewer cache lines per
// sift) at the cost of up to three extra comparisons per level, a trade
// that wins for the small, hot heaps the simulator sustains. Since (at,
// seq) is a strict total order (seq is unique), every valid min-heap pops
// in the same sequence, so the layout change cannot perturb simulation
// results.

// nodeLess orders nodes by (at, seq). The form is chosen so the compiler
// can lower it to flag arithmetic without a branch: sift loops spend most
// of their cycles on data-dependent comparisons the predictor cannot learn.
func nodeLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves the node at index i toward the root until its parent is not
// after it, keeping pos in sync.
func (e *Engine) siftUp(i int) {
	h, pos := e.nodes, e.pos
	nd := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if nodeLess(&h[p], &nd) {
			break
		}
		h[i] = h[p]
		pos[h[i].slot] = int32(i)
		i = p
	}
	h[i] = nd
	pos[nd.slot] = int32(i)
}

// siftDown moves the node at index i toward the leaves until no child is
// before it, keeping pos in sync.
func (e *Engine) siftDown(i int) {
	h, pos := e.nodes, e.pos
	n := len(h)
	nd := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the earliest of up to four children. The full-fan case is
		// unrolled as a pairwise-min tree of branchless selects.
		m := c
		if c+3 < n {
			a, b := c, c+1
			if nodeLess(&h[b], &h[a]) {
				a = b
			}
			x, y := c+2, c+3
			if nodeLess(&h[y], &h[x]) {
				x = y
			}
			if nodeLess(&h[x], &h[a]) {
				a = x
			}
			m = a
		} else {
			for cc := c + 1; cc < n; cc++ {
				if nodeLess(&h[cc], &h[m]) {
					m = cc
				}
			}
		}
		if nodeLess(&nd, &h[m]) {
			break
		}
		h[i] = h[m]
		pos[h[i].slot] = int32(i)
		i = m
	}
	h[i] = nd
	pos[nd.slot] = int32(i)
}

// alloc claims a slot for (fn, arg), reusing the free list.
func (e *Engine) alloc(fn EventFunc, arg any) int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[s] = eslot{fn: fn, arg: arg}
		return s
	}
	e.slots = append(e.slots, eslot{fn: fn, arg: arg})
	e.pos = append(e.pos, posFree)
	return int32(len(e.slots) - 1)
}

// release returns a slot to the free list, dropping fn/arg for the GC.
func (e *Engine) release(s int32) {
	e.slots[s] = eslot{}
	e.pos[s] = posFree
	e.free = append(e.free, s)
}

// fifoPush appends a slot to the same-instant ring.
func (e *Engine) fifoPush(seq uint64, slot int32) {
	if e.fifoLen == len(e.fifo) {
		e.fifoGrow()
	}
	e.fifo[(e.fifoHead+e.fifoLen)&(len(e.fifo)-1)] = fent{seq: seq, slot: slot}
	e.fifoLen++
	e.pos[slot] = posFIFO
}

// fifoGrow doubles the ring, unwrapping it into the new backing array.
func (e *Engine) fifoGrow() {
	n := len(e.fifo) * 2
	if n == 0 {
		n = 64
	}
	nf := make([]fent, n)
	for i := 0; i < e.fifoLen; i++ {
		nf[i] = e.fifo[(e.fifoHead+i)&(len(e.fifo)-1)]
	}
	e.fifo = nf
	e.fifoHead = 0
}

// schedule places (fn, arg) at absolute time t and returns its slot id.
func (e *Engine) schedule(t Time, fn EventFunc, arg any) int32 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	s := e.alloc(fn, arg)
	if t == e.now {
		// Same-instant: the FIFO drains before the clock advances, so all
		// live entries share at == now and insertion order is seq order.
		e.fifoAt = t
		e.fifoPush(e.seq, s)
		return s
	}
	e.nodes = append(e.nodes, node{at: t, seq: e.seq, slot: s})
	e.siftUp(len(e.nodes) - 1)
	return s
}

// scheduleSeq places (fn, arg) at time t under an explicit sequence number —
// the Waker's stale-slot adoption path (see waker.go). A fresh sequence
// number is still consumed, exactly as a plain push would, so every other
// event's numbering is unaffected. The node always enters the heap: an
// adopted (old, small) sequence number would violate the FIFO's
// insertion-order invariant, and the pop merge handles an at==now heap node
// correctly.
func (e *Engine) scheduleSeq(t Time, seq uint64, fn EventFunc, arg any) (int32, uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	fresh := e.seq
	s := e.alloc(fn, arg)
	e.nodes = append(e.nodes, node{at: t, seq: seq, slot: s})
	e.siftUp(len(e.nodes) - 1)
	return s, fresh
}

// reschedule moves a live slot to an earlier-or-equal time t — the
// decrease-key behind Waker coalescing. seq is the sequence number the moved
// event assumes; a fresh one is consumed regardless (callers pass either the
// fresh number, via freshSeq semantics, or an adopted stale one). The slot
// must be heap-resident; same-instant FIFO entries are never rescheduled
// (nothing can be earlier than now).
func (e *Engine) reschedule(s int32, t Time, seq uint64) uint64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", t, e.now))
	}
	i := e.pos[s]
	if i < 0 {
		panic("sim: reschedule of a non-heap event")
	}
	e.seq++
	fresh := e.seq
	if seq == useFreshSeq {
		seq = fresh
	}
	if t == e.now && seq == fresh {
		// Move heap -> FIFO: remove node i, then enqueue at the tail (the
		// fresh seq is the largest live one, so FIFO order is preserved).
		e.heapRemove(int(i))
		e.fifoAt = t
		e.fifoPush(seq, s)
		return fresh
	}
	// The new key is strictly smaller than the old one — t < the node's
	// current time (an equal-or-later request is absorbed by the caller), and
	// the FIFO path above covers the only same-instant case — so the node can
	// only move toward the root.
	e.nodes[i].at = t
	e.nodes[i].seq = seq
	e.siftUp(int(i))
	return fresh
}

// useFreshSeq asks reschedule to use the freshly consumed sequence number.
const useFreshSeq = ^uint64(0)

// heapRemove deletes the node at index i, preserving the heap invariant.
func (e *Engine) heapRemove(i int) {
	h := e.nodes
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		e.pos[h[i].slot] = int32(i)
	}
	e.nodes = h[:n]
	if i < n {
		e.siftUp(i)
		e.siftDown(int(e.pos[h[i].slot]))
	}
}

// popRoot deletes the heap's root: the last node takes its place and sifts
// down.
func (e *Engine) popRoot() {
	n := len(e.nodes) - 1
	e.nodes[0] = e.nodes[n]
	e.nodes = e.nodes[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

// popNext removes the earliest event and returns its time, callback and
// argument. The FIFO and the heap are merged by (at, seq): heap nodes at the
// FIFO's instant always carry smaller sequence numbers (they were scheduled
// before the clock reached it), so the comparison is exact, not heuristic.
func (e *Engine) popNext() (Time, EventFunc, any, bool) {
	var at Time
	var s int32
	if e.fifoLen > 0 && (len(e.nodes) == 0 ||
		!nodeLess(&e.nodes[0], &node{at: e.fifoAt, seq: e.fifo[e.fifoHead].seq})) {
		at, s = e.fifoAt, e.fifo[e.fifoHead].slot
		e.fifoHead = (e.fifoHead + 1) & (len(e.fifo) - 1)
		e.fifoLen--
	} else if len(e.nodes) == 0 {
		return 0, nil, nil, false
	} else {
		nd := e.nodes[0]
		if nd.lane {
			fn, arg := e.slots[nd.slot].arg.(*Lane).pop()
			return nd.at, fn, arg, true
		}
		e.popRoot()
		at, s = nd.at, nd.slot
	}
	fn, arg := e.slots[s].fn, e.slots[s].arg
	e.release(s)
	return at, fn, arg, true
}

// peekAt reports the earliest pending timestamp.
func (e *Engine) peekAt() (Time, bool) {
	switch {
	case e.fifoLen > 0 && len(e.nodes) > 0:
		if e.nodes[0].at < e.fifoAt {
			return e.nodes[0].at, true
		}
		return e.fifoAt, true
	case e.fifoLen > 0:
		return e.fifoAt, true
	case len(e.nodes) > 0:
		return e.nodes[0].at, true
	}
	return 0, false
}

// AtFunc schedules fn(arg) at absolute time t. This is the allocation-free
// scheduling path: fn is typically a long-lived handler (a bound method
// value created once at component construction, or a package-level
// dispatcher) and arg a pointer the caller already owns, so steady-state
// scheduling performs no heap allocation. Scheduling in the past panics: it
// always indicates a component bug, and silently clamping would hide it.
func (e *Engine) AtFunc(t Time, fn EventFunc, arg any) { e.schedule(t, fn, arg) }

// AfterFunc schedules fn(arg) d picoseconds from now. Negative d panics.
func (e *Engine) AfterFunc(d Time, fn EventFunc, arg any) { e.schedule(e.now+d, fn, arg) }

// SetEventHook installs fn to run after every `every`-th executed event,
// between events (never inside one). The invariant auditor uses this as its
// checking cadence. Passing fn == nil or every == 0 removes the hook. The
// hook must not schedule events; it observes state between them.
func (e *Engine) SetEventHook(every uint64, fn func()) {
	if fn == nil || every == 0 {
		e.hook, e.hookEvery, e.hookLeft = nil, 0, 0
		return
	}
	e.hook, e.hookEvery, e.hookLeft = fn, every, every
}

// Step executes the earliest pending event. It reports false if no events
// remain.
func (e *Engine) Step() bool {
	at, fn, arg, ok := e.popNext()
	if !ok {
		return false
	}
	e.now = at
	e.nRun++
	fn(arg)
	if e.hook != nil {
		e.hookLeft--
		if e.hookLeft == 0 {
			e.hookLeft = e.hookEvery
			e.hook()
		}
	}
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	for {
		at, ok := e.peekAt()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
