// Package sim provides the discrete-event simulation engine used by every
// component of the host-network simulator.
//
// Time is an integer count of picoseconds, which keeps all timing algebra
// exact: DRAM burst durations, PCIe serialization delays, and mode-switch
// penalties compose without floating-point drift. Events fire in (time, seq)
// order, so two events scheduled for the same instant run in scheduling
// order, making whole-simulation runs fully deterministic for a given seed.
//
// # The calendar wheel
//
// Pending events live in a calendar queue (R. Brown, CACM 31(10), 1988):
// a wheel of 1024 buckets, each 1024 ps wide, plus a small 4-ary heap for
// events at or beyond the wheel's horizon, 1024 buckets (1 048 576 ps,
// about 1.05 µs) past the start of now's bucket. A bucket is an intrusive
// list of nodes ascending by (at, seq), and a 1024-bit occupancy bitmap
// finds the first non-empty bucket. Every node lives in one slab, recycled
// through a LIFO free list, so steady-state scheduling allocates nothing
// and a freshly freed node is still in cache.
//
// The geometry follows the simulator's scheduling delays. A quarter of all
// scheduling calls are at the current instant and nearly all the rest are
// fixed-latency hops of a few to a few hundred nanoseconds: in hostbench's
// host-cold workload, all but about 5 000 of 105 M calls land within
// 262 ns, and about 200 land more than 1.05 µs ahead. The fabric's wire,
// forward and pause hops (250-600 ns) and the RDMA co-runs' 1 µs IIO
// sampler stay inside the horizon. A bucket one nanosecond wide holds a
// handful of events: in host-cold, half of all inserts find their bucket
// empty or append behind its tail, and the rest walk 1.25 nodes from its
// head on average.
//
// Neither structure can change the order events fire in. Every event takes
// one sequence number when it is scheduled, and (at, seq) keys are unique,
// so the pending set has exactly one least key. A bucket holds one lap only:
// an event goes to the wheel only when its bucket is fewer than 1024
// buckets past now's, so the wheel's events span at most 1024 consecutive
// buckets and the circular scan from now's bucket meets them in time
// order. The first node of the first non-empty bucket is therefore the
// wheel's least key, the far heap's root is the far events' least key, and
// dispatch takes the lesser of the two. A far event stays in the far heap
// until it fires.
//
// Decrease-key, which a Waker uses to move its one live event earlier, is
// remove-and-insert of the event keyed (at, seq). AtFunc/AfterFunc carry
// callbacks as a (func(arg any), arg) pair so hot components schedule with
// a long-lived handler plus a pooled or already-allocated argument instead
// of a fresh closure; a cold call site may pass a func(any) literal and a
// nil arg.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// The wheel's geometry: 1 << wheelBits buckets, each 1 << bucketShift ps
// wide.
const (
	bucketShift = 10
	wheelBits   = 10
	nBuckets    = 1 << wheelBits
)

// maxTime bounds a dispatch that has no time limit.
const maxTime = Time(math.MaxInt64)

// node is one pending event. Nodes live in the engine's slab and link by
// index; index 0 is the nil link, so a zero link ends a list.
type node struct {
	at   Time
	seq  uint64
	next int32 // next node in the bucket, or in the free list
	fn   EventFunc
	arg  any
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is ready to use. Engines are not safe for concurrent use;
// the simulator is deliberately single-threaded so that runs are reproducible.
type Engine struct {
	now  Time
	seq  uint64
	nRun uint64

	nodes []node // slab; nodes[0] is the nil link
	free  int32  // LIFO free list of slab nodes, linked through next
	n     int    // pending events, in the wheel and the far heap

	head, tail [nBuckets]int32       // each bucket's list, ascending by (at, seq)
	occ        [nBuckets / 64]uint64 // bit b set iff bucket b is non-empty
	far        []int32               // 4-ary min-heap of events past the horizon

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
func (e *Engine) Pending() int { return e.n }

// less orders slab nodes by (at, seq).
func (e *Engine) less(a, b int32) bool {
	x, y := &e.nodes[a], &e.nodes[b]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// newNode takes a node from the free list, or grows the slab. The fields
// are stored one by one: a whole-struct store of a node, which holds
// pointers, costs a bulk write-barrier copy.
func (e *Engine) newNode(t Time, seq uint64, fn EventFunc, arg any) int32 {
	i := e.free
	if i == 0 {
		return e.growNode(t, seq, fn, arg)
	}
	nd := &e.nodes[i]
	e.free = nd.next
	nd.at, nd.seq, nd.next = t, seq, 0
	nd.fn, nd.arg = fn, arg
	return i
}

// growNode appends a node to the slab, first reserving node 0 as the nil
// link.
func (e *Engine) growNode(t Time, seq uint64, fn EventFunc, arg any) int32 {
	if len(e.nodes) == 0 {
		e.nodes = append(e.nodes, node{})
	}
	e.nodes = append(e.nodes, node{at: t, seq: seq, fn: fn, arg: arg})
	return int32(len(e.nodes) - 1)
}

// insert files node i, keyed (t, seq), into its bucket when the bucket is
// within one lap of now's, else into the far heap.
func (e *Engine) insert(i int32, t Time, seq uint64) {
	e.n++
	if uint64(t>>bucketShift-e.now>>bucketShift) >= nBuckets {
		e.far = append(e.far, i)
		e.farUp(len(e.far) - 1)
		return
	}
	b := int(t>>bucketShift) & (nBuckets - 1)
	tl := e.tail[b]
	if tl == 0 {
		e.head[b], e.tail[b] = i, i
		e.occ[b>>6] |= 1 << (b & 63)
		return
	}
	if x := &e.nodes[tl]; x.at < t || x.at == t && x.seq < seq {
		x.next = i
		e.tail[b] = i
		return
	}
	p, c := int32(0), e.head[b]
	for e.less(c, i) {
		p, c = c, e.nodes[c].next
	}
	e.nodes[i].next = c
	if p == 0 {
		e.head[b] = i
	} else {
		e.nodes[p].next = i
	}
}

// remove unlinks the pending event keyed (at, seq) and returns its node.
func (e *Engine) remove(at Time, seq uint64) int32 {
	e.n--
	if uint64(at>>bucketShift-e.now>>bucketShift) < nBuckets {
		b := int(at>>bucketShift) & (nBuckets - 1)
		p := int32(0)
		for c := e.head[b]; c != 0; p, c = c, e.nodes[c].next {
			if nd := &e.nodes[c]; nd.at == at && nd.seq == seq {
				e.unlink(b, p, c)
				return c
			}
		}
	}
	for k, c := range e.far {
		if nd := &e.nodes[c]; nd.at == at && nd.seq == seq {
			e.farRemove(k)
			return c
		}
	}
	panic(fmt.Sprintf("sim: no pending event at %v with seq %d", at, seq))
}

// unlink removes node c, whose predecessor in bucket b is p (0 at the head).
func (e *Engine) unlink(b int, p, c int32) {
	nx := e.nodes[c].next
	e.nodes[c].next = 0
	if p == 0 {
		e.head[b] = nx
	} else {
		e.nodes[p].next = nx
	}
	if e.tail[b] == c {
		e.tail[b] = p
	}
	if nx == 0 && p == 0 {
		e.occ[b>>6] &^= 1 << (b & 63)
	}
}

// firstBucket returns the earliest non-empty bucket, scanning circularly
// from now's. The wheel must hold at least one event. Its usual case, a
// bucket in now's bitmap word, inlines.
func (e *Engine) firstBucket() int {
	start := int(e.now>>bucketShift) & (nBuckets - 1)
	if m := e.occ[start>>6] >> (start & 63); m != 0 {
		return start + bits.TrailingZeros64(m)
	}
	return e.scanBuckets(start >> 6)
}

// scanBuckets finds the first non-empty bucket in the bitmap words after
// word w, wrapping round to w itself.
func (e *Engine) scanBuckets(w int) int {
	for k := 1; k <= len(e.occ); k++ {
		ww := (w + k) & (len(e.occ) - 1)
		if m := e.occ[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: occupancy bitmap out of step with the wheel")
}

// The far heap is 4-ary: children of index k are 4k+1..4k+4, parent
// (k-1)/4. It holds the few events scheduled past the horizon.

// farUp moves the far heap's entry at k toward the root.
func (e *Engine) farUp(k int) {
	h := e.far
	x := h[k]
	for k > 0 {
		p := (k - 1) / 4
		if !e.less(x, h[p]) {
			break
		}
		h[k] = h[p]
		k = p
	}
	h[k] = x
}

// farDown moves the far heap's entry at k toward the leaves.
func (e *Engine) farDown(k int) {
	h := e.far
	x := h[k]
	for {
		m := 4*k + 1
		if m >= len(h) {
			break
		}
		for c := m + 1; c < min(m+4, len(h)); c++ {
			if e.less(h[c], h[m]) {
				m = c
			}
		}
		if !e.less(h[m], x) {
			break
		}
		h[k] = h[m]
		k = m
	}
	h[k] = x
}

// farRemove deletes the far heap's entry at k.
func (e *Engine) farRemove(k int) {
	n := len(e.far) - 1
	e.far[k] = e.far[n]
	e.far = e.far[:n]
	if k < n {
		e.farUp(k)
		e.farDown(k)
	}
}

// schedule places (fn, arg) at absolute time t under a fresh sequence
// number.
func (e *Engine) schedule(t Time, fn EventFunc, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.insert(e.newNode(t, e.seq, fn, arg), t, e.seq)
}

// scheduleSeq places (fn, arg) at time t under an explicit sequence number —
// the Waker's stale-slot adoption path (see waker.go). A fresh sequence
// number is still consumed, exactly as a plain push would, so every other
// event's numbering is unaffected; it is returned.
func (e *Engine) scheduleSeq(t Time, seq uint64, fn EventFunc, arg any) uint64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.insert(e.newNode(t, seq, fn, arg), t, seq)
	return e.seq
}

// reschedule moves the pending event keyed (at, seq) to time t under
// sequence number newSeq — the decrease-key behind Waker coalescing. A
// fresh sequence number is consumed regardless and returned; newSeq ==
// useFreshSeq asks for the event to take it.
func (e *Engine) reschedule(at Time, seq uint64, t Time, newSeq uint64) uint64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", t, e.now))
	}
	e.seq++
	if newSeq == useFreshSeq {
		newSeq = e.seq
	}
	i := e.remove(at, seq)
	e.nodes[i].at, e.nodes[i].seq = t, newSeq
	e.insert(i, t, newSeq)
	return e.seq
}

// useFreshSeq asks reschedule to use the freshly consumed sequence number.
const useFreshSeq = ^uint64(0)

// popNext removes the earliest event, if its time is at most limit, and
// returns its node, which the caller frees; 0 means no event is due. The
// wheel's first node and the far heap's root are each their structure's
// least key, so the lesser of the two is the least pending key.
func (e *Engine) popNext(limit Time) int32 {
	if e.n == len(e.far) {
		return e.popFar(limit)
	}
	b := e.firstBucket()
	i := e.head[b]
	if len(e.far) > 0 && e.less(e.far[0], i) {
		return e.popFar(limit)
	}
	nd := &e.nodes[i]
	if nd.at > limit {
		return 0
	}
	e.n--
	nx := nd.next
	e.head[b] = nx
	if nx == 0 {
		e.tail[b] = 0
		e.occ[b>>6] &^= 1 << (b & 63)
	}
	return i
}

// popFar removes the far heap's root if the heap has one due by limit.
func (e *Engine) popFar(limit Time) int32 {
	if len(e.far) == 0 || e.nodes[e.far[0]].at > limit {
		return 0
	}
	i := e.far[0]
	e.n--
	e.farRemove(0)
	return i
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
func (e *Engine) Step() bool { return e.step(maxTime) }

// step executes the earliest pending event if its time is at most limit.
// The node goes back to the free list before its callback runs, so an
// event the callback schedules reuses it while it is still in cache.
func (e *Engine) step(limit Time) bool {
	i := e.popNext(limit)
	if i == 0 {
		return false
	}
	nd := &e.nodes[i]
	fn, arg := nd.fn, nd.arg
	e.now = nd.at
	nd.next, nd.fn, nd.arg = e.free, nil, nil
	e.free = i
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
	for e.step(t) {
	}
	if t > e.now {
		e.now = t
	}
}
