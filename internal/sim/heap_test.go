package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// horizon is the wheel's span: an event this far past now's bucket goes to
// the far heap.
const horizon = Time(nBuckets << bucketShift)

// TestHeapMatchesReferenceModel drives the engine with random interleavings
// of AtFunc, AfterFunc, decrease-key, Step and RunUntil and checks every
// dispatch against a reference model: the dispatched event must hold the
// least (time, seq) key of every event the model has pending, and fire at
// its time. This pins the wheel's and the far heap's pop order to the exact
// (time, seq) contract the rest of the simulator's determinism rests on.
// Times fall within a bucket, within the wheel, at and around the horizon,
// and several laps ahead; RunUntil bounds fall between events and move the
// clock by up to two laps, so far events come due beside wheel events.
// Pending must count every scheduled, undispatched event.
func TestHeapMatchesReferenceModel(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	less := func(a, b key) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }
	f := func(ops []uint32) bool {
		e := New()
		pending := map[int]key{} // label -> key of each undispatched event
		var labels []int         // pending labels, for picking one to move
		ok := true
		fire := func(arg any) {
			l := arg.(int)
			k := pending[l]
			for _, o := range pending {
				if less(o, k) {
					ok = false
				}
			}
			if e.Now() != k.at {
				ok = false
			}
			delete(pending, l)
		}
		next := 0
		add := func(at Time) {
			e.AtFunc(at, fire, next)
			pending[next] = key{at, e.seq}
			labels = append(labels, next)
			next++
		}
		for _, op := range ops {
			now := e.Now()
			v := Time(op / 16)
			switch op % 16 {
			case 0, 1: // absolute time in a small range, for collisions
				add(max(v%509, now))
			case 2, 3: // a short delay, often within now's bucket
				add(now + v%97)
			case 4: // within the wheel
				add(now + v%horizon)
			case 5: // around the horizon, either side of it
				add(now + horizon - 4096 + v%8192)
			case 6: // the first and last instants of the bucket one lap on
				b := (now>>bucketShift + nBuckets) << bucketShift
				add(b - Time(v%2))
			case 7: // several laps ahead
				add(now + (1+v%5)*horizon + v/8%3000)
			case 8: // decrease-key: move a pending event to an earlier time
				if len(labels) == 0 {
					break
				}
				l := labels[int(v)%len(labels)]
				k, live := pending[l]
				if !live || k.at == now {
					break
				}
				to := now + v/64%(k.at-now)
				fresh := e.reschedule(k.at, k.seq, to, useFreshSeq)
				pending[l] = key{to, fresh}
			case 9: // RunUntil a bound that often falls between events
				e.RunUntil(now + v%3000)
			case 10: // RunUntil up to two laps on
				e.RunUntil(now + v%(2*horizon))
			default:
				e.Step()
			}
			if e.Pending() != len(pending) || !ok {
				return false
			}
		}
		e.Run()
		return ok && len(pending) == 0 && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAtFuncPassesArg pins the closure-free path's contract: the scheduled
// function receives exactly the argument it was scheduled with.
func TestAtFuncPassesArg(t *testing.T) {
	e := New()
	type payload struct{ n int }
	var got []int
	record := func(arg any) { got = append(got, arg.(*payload).n) }
	e.AtFunc(20, record, &payload{n: 2})
	e.AtFunc(10, record, &payload{n: 1})
	e.AfterFunc(30, record, &payload{n: 3})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v, want [1 2 3]", got)
	}
}

// TestSteadyStateSchedulingZeroAlloc is the allocation gate behind the CI
// bench smoke step, enforced on every plain `go test` run: steady-state
// scheduling through AtFunc and AfterFunc (with a reused handler), an event
// past the horizon, and Waker arming and decrease-key, within a bucket and
// across buckets, must not allocate. The slab and the far heap are
// pre-grown so slice growth (a one-time, amortized cost) is excluded.
func TestSteadyStateSchedulingZeroAlloc(t *testing.T) {
	e := New()
	w := NewWaker(e, func() {})
	handler := func(any) {}
	for i := 0; i < 64; i++ { // pre-grow the slab and the far heap
		e.AtFunc(Time(i), handler, nil)
		e.AfterFunc(2*horizon+Time(i), handler, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		now := e.Now()
		e.AtFunc(now+5, handler, w)
		e.AfterFunc(10, handler, nil)
		e.AfterFunc(horizon+10, handler, nil) // the far heap
		b := (now>>bucketShift + 2) << bucketShift
		w.WakeAt(b + 700)
		w.WakeAt(b + 300) // decrease-key within a bucket
		w.WakeAt(now + 2) // and across buckets
		e.RunUntil(now + horizon + 20)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocated %v per run, want 0", allocs)
	}
}

// TestHeapDeepOrdering checks 2000 events within 1000 ps, so one bucket
// holds hundreds of them and seq breaks most ties, against a full reference
// ordering.
func TestHeapDeepOrdering(t *testing.T) {
	e := New()
	rng := RNG(99)
	const n = 2000
	var want []Time
	var got []Time
	for i := 0; i < n; i++ {
		at := Time(rng.Uint64N(1000)) // heavy collisions: seq must break ties
		want = append(want, at)
		e.AtFunc(at, func(any) { got = append(got, e.Now()) }, nil)
	}
	e.Run()
	sort.SliceStable(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != n {
		t.Fatalf("dispatched %d of %d events", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d at %v, want %v", i, got[i], want[i])
		}
	}
}
