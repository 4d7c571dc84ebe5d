package sim

import "math/rand/v2"

// Waker coalesces wake-up events for a component that wants to be "kicked"
// whenever its inputs change. Multiple Wake calls for the same instant (or
// while a wake is already pending at an earlier-or-equal time) collapse into
// a single callback invocation, which keeps hot components (the memory
// controller scheduler, the CHA admission stage) from flooding the event heap.
//
// A waker owns at most one live event. An earlier request reschedules that
// event in place (the engine's decrease-key) instead of pushing a
// superseding duplicate, so no stale no-op events ever reach dispatch.
//
// # Stale-slot adoption
//
// The previous implementation left the superseded event in the heap as a
// no-op, and that accident was output-visible: if the waker was later
// re-armed for exactly the stale event's timestamp, the stale event popped
// first within that instant (its sequence number was older) and fired the
// callback at the *older* position — earlier, relative to other events at
// the same instant, than the re-arm's own event. Simulation outputs are
// pinned byte-identical across engine rewrites, so the rework must keep
// that ordering without keeping the dead events. The stale list records the
// (at, seq) of every event the old implementation would still be holding;
// arming at a recorded timestamp adopts the recorded sequence number (and
// the fresh number takes the record's place, exactly mirroring which event
// would have been the no-op). Records die once the clock passes them, so
// the list stays at most a handful of entries.
type Waker struct {
	eng       *Engine
	fn        func()
	pendingAt Time
	pending   bool
	slot      int32
	seq       uint64 // sequence number of the live event
	stale     []staleRec
	// staleMin/staleMax band the record timestamps so the common WakeAt
	// (no record at t, none expired) skips the scan entirely.
	staleMin, staleMax Time
}

// staleRec is one event the pre-decrease-key implementation would still
// hold in its heap: superseded, not yet popped.
type staleRec struct {
	at  Time
	seq uint64
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

// record remembers a superseded event's (at, seq), keeping the time band
// current.
func (w *Waker) record(at Time, seq uint64) {
	if len(w.stale) == 0 {
		w.staleMin, w.staleMax = at, at
	} else {
		if at < w.staleMin {
			w.staleMin = at
		}
		if at > w.staleMax {
			w.staleMax = at
		}
	}
	w.stale = append(w.stale, staleRec{at: at, seq: seq})
}

// adopt removes and returns the oldest stale record at exactly t, if any.
// A dead record (at < now) can never match — t >= now always — so pruning
// is purely a memory/scan-length concern and rides along with the scan.
// The [staleMin, staleMax] band short-circuits the common cases: a fresh
// arm in the future beyond every record, and a supersede to now while all
// records are still live in the future. The band check lives in this small
// inlinable wrapper so the hot WakeAt path pays no call when it misses.
func (w *Waker) adopt(t Time) (uint64, bool) {
	if len(w.stale) == 0 || t < w.staleMin || t > w.staleMax {
		return 0, false
	}
	return w.adoptScan(t)
}

// adoptScan is the slow path of adopt: scan, prune dead records, and
// re-derive the time band.
func (w *Waker) adoptScan(t Time) (uint64, bool) {
	now := w.eng.Now()
	best := uint64(0)
	found := false
	kept := w.stale[:0]
	min, max := Time(1<<62), Time(-1)
	for _, r := range w.stale {
		if r.at < now {
			continue
		}
		if r.at == t {
			if !found {
				best, found = r.seq, true
				continue
			}
			if r.seq < best {
				// Keep the younger of the two as residue; adopt the older.
				r.seq, best = best, r.seq
			}
		}
		if r.at < min {
			min = r.at
		}
		if r.at > max {
			max = r.at
		}
		kept = append(kept, r)
	}
	w.stale = kept
	w.staleMin, w.staleMax = min, max
	return best, found
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
		// pendingAt > t >= now implies the live event sits in the heap (the
		// same-instant FIFO only ever holds events at now), so decrease-key
		// applies. The superseded position becomes a stale record.
		w.record(w.pendingAt, w.seq)
		w.pendingAt = t
		if old, ok := w.adopt(t); ok {
			fresh := w.eng.reschedule(w.slot, t, old)
			w.record(t, fresh)
			w.seq = old
		} else {
			w.seq = w.eng.reschedule(w.slot, t, useFreshSeq)
		}
		return
	}
	w.pending = true
	w.pendingAt = t
	if old, ok := w.adopt(t); ok {
		slot, fresh := w.eng.scheduleSeq(t, old, wakerFire, w)
		w.slot = slot
		w.seq = old
		w.record(t, fresh)
		return
	}
	w.slot = w.eng.schedule(t, wakerFire, w)
	w.seq = w.eng.seq
}

// RNG returns a deterministic PCG-based random source for the given stream
// seed. Each component takes its own stream so that adding randomness to one
// component never perturbs another's sequence.
func RNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}
