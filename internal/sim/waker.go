package sim

import "math/rand/v2"

// Waker coalesces wake-up events for a component that wants to be "kicked"
// whenever its inputs change. Multiple Wake calls for the same instant (or
// while a wake is already pending at an earlier-or-equal time) collapse into
// a single callback invocation, which keeps hot components (the memory
// controller scheduler, the CHA admission stage) from flooding the event set.
//
// A waker owns at most one live event, which it finds by its key
// (pendingAt, seq). An earlier request moves that event (the engine's
// decrease-key: remove the event keyed (pendingAt, seq), insert it under
// its new key) instead of pushing a superseding duplicate, so no stale
// no-op events ever reach dispatch.
//
// # Stale-slot adoption
//
// An older implementation left the superseded event pending as a no-op,
// and that accident was output-visible: if the waker was later re-armed for
// exactly the stale event's timestamp, the stale event popped first within
// that instant (its sequence number was older) and fired the callback at
// the *older* position — earlier, relative to other events at the same
// instant, than the re-arm's own event. Simulation outputs are pinned
// byte-identical, so the waker keeps that ordering without keeping the dead
// events: it records the (at, seq) of every superseded event, and arming at
// time t adopts the oldest record at exactly t whose timestamp the clock has
// not passed. The fresh number the arm consumed takes the record's place.
// This is the rule the golden outputs pin; it does not reproduce every
// same-instant order of the no-op implementation.
//
// The records are grouped by timestamp, ascending, and each group is an
// ascending deque of sequence numbers, so adoption pops a group's front.
// Recording is O(1) in the two orders the arm paths produce: a fresh number
// is the largest yet and goes to the back, and a re-recorded adopted number
// is older than everything left in its group and goes to the front. Groups
// the clock has passed are dropped.
type Waker struct {
	eng       *Engine
	fn        func()
	pendingAt Time
	pending   bool
	seq       uint64 // sequence number of the live event

	stale []staleGroup // record groups, ascending by at
	spare [][]uint64   // buffers of dropped groups, for reuse
}

// staleGroup holds the records at one timestamp: the sequence numbers
// seqs[head:], ascending.
type staleGroup struct {
	at   Time
	seqs []uint64
	head int
}

// NewWaker returns a waker that invokes fn on the engine's event loop.
func NewWaker(eng *Engine, fn func()) *Waker { return &Waker{eng: eng, fn: fn} }

// Wake requests a callback now (i.e., as a fresh event at the current time).
func (w *Waker) Wake() { w.WakeAt(w.eng.Now()) }

// wakerFire dispatches a waker's scheduled event. Sharing one package-level
// handler keeps WakeAt allocation-free.
func wakerFire(arg any) {
	w := arg.(*Waker)
	w.pending = false
	w.fn()
}

// prune drops the groups the clock has passed, keeping their buffers.
func (w *Waker) prune() {
	now := w.eng.Now()
	k := 0
	for k < len(w.stale) && w.stale[k].at < now {
		w.spare = append(w.spare, w.stale[k].seqs[:0])
		k++
	}
	if k > 0 {
		n := copy(w.stale, w.stale[k:])
		clear(w.stale[n:])
		w.stale = w.stale[:n]
	}
}

// record remembers a superseded event's (at, seq). Pruning here bounds the
// groups by the timestamps still ahead of the clock.
func (w *Waker) record(at Time, seq uint64) {
	w.prune()
	i := 0
	for i < len(w.stale) && w.stale[i].at < at {
		i++
	}
	if i == len(w.stale) || w.stale[i].at != at {
		var buf []uint64
		if n := len(w.spare); n > 0 {
			buf = w.spare[n-1]
			w.spare = w.spare[:n-1]
		}
		w.stale = append(w.stale, staleGroup{})
		copy(w.stale[i+1:], w.stale[i:])
		w.stale[i] = staleGroup{at: at, seqs: buf}
	}
	w.stale[i].push(seq)
}

// push inserts seq in order.
func (g *staleGroup) push(seq uint64) {
	live := g.seqs[g.head:]
	switch {
	case len(live) == 0 || seq > live[len(live)-1]:
		if g.head > 0 && len(g.seqs) == cap(g.seqs) {
			g.seqs = g.seqs[:copy(g.seqs, live)]
			g.head = 0
		}
		g.seqs = append(g.seqs, seq)
	case seq < live[0] && g.head > 0:
		g.head--
		g.seqs[g.head] = seq
	default:
		j := g.head
		for j < len(g.seqs) && g.seqs[j] < seq {
			j++
		}
		g.seqs = append(g.seqs, 0)
		copy(g.seqs[j+1:], g.seqs[j:])
		g.seqs[j] = seq
	}
}

// adopt removes and returns the oldest record at exactly t, if any. The
// bounds check lives in this small inlinable wrapper so the hot WakeAt path
// pays no call when t lies outside every group.
func (w *Waker) adopt(t Time) (uint64, bool) {
	if n := len(w.stale); n == 0 || t < w.stale[0].at || t > w.stale[n-1].at {
		return 0, false
	}
	return w.adoptGroup(t)
}

// adoptGroup is the slow path of adopt: find group t and pop its front.
func (w *Waker) adoptGroup(t Time) (uint64, bool) {
	for i := range w.stale {
		g := &w.stale[i]
		if g.at < t {
			continue
		}
		if g.at > t || g.head == len(g.seqs) {
			break
		}
		seq := g.seqs[g.head]
		g.head++
		return seq, true
	}
	return 0, false
}

// WakeAt requests a callback at absolute time t. If a wake-up is already
// pending at or before t, the request is absorbed; if one is pending later,
// it is moved earlier in place.
func (w *Waker) WakeAt(t Time) {
	if t < w.eng.Now() {
		t = w.eng.Now()
	}
	if w.pending {
		if w.pendingAt <= t {
			return
		}
		// Decrease-key: the superseded position becomes a stale record.
		at, seq := w.pendingAt, w.seq
		w.record(at, seq)
		w.pendingAt = t
		if old, ok := w.adopt(t); ok {
			fresh := w.eng.reschedule(at, seq, t, old)
			w.record(t, fresh)
			w.seq = old
		} else {
			w.seq = w.eng.reschedule(at, seq, t, useFreshSeq)
		}
		return
	}
	w.pending = true
	w.pendingAt = t
	if old, ok := w.adopt(t); ok {
		fresh := w.eng.scheduleSeq(t, old, wakerFire, w)
		w.seq = old
		w.record(t, fresh)
		return
	}
	w.eng.schedule(t, wakerFire, w)
	w.seq = w.eng.seq
}

// RNG returns a deterministic PCG-based random source for the given stream
// seed. Each component takes its own stream so that adding randomness to one
// component never perturbs another's sequence.
func RNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}
