package sim

import "testing"

// flatWaker is the Waker as it was before its stale records were grouped by
// timestamp: one flat list of (at, seq) records, scanned linearly on every
// arm that falls inside their time band. It is the reference model the
// grouped records must match dispatch for dispatch.
type flatWaker struct {
	eng                *Engine
	fn                 func()
	pendingAt          Time
	pending            bool
	seq                uint64
	stale              []staleRec
	staleMin, staleMax Time
}

type staleRec struct {
	at  Time
	seq uint64
}

func flatWakerFire(arg any) {
	w := arg.(*flatWaker)
	w.pending = false
	w.fn()
}

func (w *flatWaker) Wake() { w.WakeAt(w.eng.Now()) }

func (w *flatWaker) record(at Time, seq uint64) {
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

func (w *flatWaker) adopt(t Time) (uint64, bool) {
	if len(w.stale) == 0 || t < w.staleMin || t > w.staleMax {
		return 0, false
	}
	return w.adoptScan(t)
}

func (w *flatWaker) adoptScan(t Time) (uint64, bool) {
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

func (w *flatWaker) WakeAt(t Time) {
	if t < w.eng.Now() {
		t = w.eng.Now()
	}
	if w.pending {
		if w.pendingAt <= t {
			return
		}
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
		fresh := w.eng.scheduleSeq(t, old, flatWakerFire, w)
		w.seq = old
		w.record(t, fresh)
		return
	}
	w.eng.schedule(t, flatWakerFire, w)
	w.seq = w.eng.seq
}

// waker is what the script driver needs of either implementation.
type waker interface {
	WakeAt(Time)
	Wake()
}

type dispatch struct {
	at    Time
	label int
}

// scriptDelay returns near, a few picoseconds, for most script words: that
// builds the same-instant re-arm chains where adoption shows. The rest add
// a few buckets, about one horizon or several laps, so a re-arm moves a
// waker's event between buckets and out of the far heap.
func scriptDelay(v uint32, near Time) Time {
	switch v >> 24 % 8 {
	case 5:
		return near + Time(1+v>>8%4)<<bucketShift
	case 6:
		return near + horizon + (Time(v>>8%4)-2)<<bucketShift
	case 7:
		return near + Time(1+v>>8%3)*horizon
	}
	return near
}

// runWakerScript drives three wakers, foreign events and Steps from one
// script of random words, and returns every dispatch's (time, label). A
// waker's callback reads the script too: it often re-arms itself, at the
// same instant or a little later.
func runWakerScript(script []uint32, newWaker func(*Engine, func()) waker) []dispatch {
	e := New()
	var log []dispatch
	pos := 0
	next := func() (uint32, bool) {
		if pos == len(script) {
			return 0, false
		}
		pos++
		return script[pos-1], true
	}
	var ws [3]waker
	for k := range ws {
		k := k
		ws[k] = newWaker(e, func() {
			log = append(log, dispatch{e.Now(), k})
			if v, ok := next(); ok && v%3 != 0 {
				ws[k].WakeAt(e.Now() + scriptDelay(v, Time(v/3%4)))
			}
		})
	}
	labels := 100
	foreign := func(arg any) { log = append(log, dispatch{e.Now(), arg.(int)}) }
	for {
		v, ok := next()
		if !ok {
			break
		}
		d := scriptDelay(v, Time(v/16%8))
		switch v % 8 {
		case 0, 1, 2:
			ws[v/128%3].WakeAt(e.Now() + d)
		case 3:
			ws[v/128%3].Wake()
		case 4:
			labels++
			e.AtFunc(e.Now()+d, foreign, labels)
		case 5:
			labels++
			e.AfterFunc(d, foreign, labels)
		default:
			e.Step()
		}
	}
	e.Run()
	return log
}

// TestWakerMatchesFlatReference checks the grouped stale records against
// the flat list they replaced, on random interleavings of WakeAt, Wake,
// foreign events and Step: every dispatch must land at the same time with
// the same label, in the same order.
func TestWakerMatchesFlatReference(t *testing.T) {
	rng := RNG(0x5ca1e)
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		script := make([]uint32, 1+rng.IntN(200))
		for j := range script {
			script[j] = rng.Uint32()
		}
		got := runWakerScript(script, func(e *Engine, fn func()) waker { return NewWaker(e, fn) })
		want := runWakerScript(script, func(e *Engine, fn func()) waker { return &flatWaker{eng: e, fn: fn} })
		if len(got) != len(want) {
			t.Fatalf("script %d: %d dispatches, reference %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("script %d: dispatch %d is %+v, reference %+v", i, j, got[j], want[j])
			}
		}
	}
}
