package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// TestHeapMatchesReferenceModel drives the engine with random interleavings
// of AtFunc, AfterFunc, lane scheduling and Step and checks every dispatch
// against a reference model (the same events ordered by sort.Slice on
// (time, seq)). This pins the 4-ary heap's pop order, and the lanes merged
// into it, to the exact (time, seq) contract the rest of the simulator's
// determinism rests on. Lane calls come in order, out of order (earlier
// than the lane's last entry) and at the current instant. Pending must
// count every scheduled, undispatched event, lane entries included.
func TestHeapMatchesReferenceModel(t *testing.T) {
	type ref struct {
		at  Time
		seq int // scheduling order
	}
	f := func(ops []uint32) bool {
		e := New()
		lanes := []*Lane{e.NewLane(), e.NewLane()}
		var tails [2]Time // latest time scheduled through each lane
		var model []ref
		var got []ref
		seq := 0
		add := func(at Time) EventFunc {
			r := ref{at: at, seq: seq}
			seq++
			model = append(model, r)
			return func(any) { got = append(got, ref{e.Now(), r.seq}) }
		}
		for _, op := range ops {
			k := op / 8 % 2
			l := lanes[k]
			switch op % 8 {
			case 0, 1: // AtFunc: absolute time in a small range for collisions
				at := Time(op % 509)
				if at < e.Now() {
					at = e.Now()
				}
				e.AtFunc(at, add(at), nil)
			case 2: // AfterFunc: relative delay
				d := Time(op % 97)
				e.AfterFunc(d, add(e.Now()+d), nil)
			case 3: // lane, in order: at or after the lane's last entry
				at := max(tails[k], e.Now()) + Time(op%7)
				tails[k] = at
				l.At(at, add(at), nil)
			case 4: // lane, any order: often earlier than its last entry
				d := Time(op % 61)
				tails[k] = max(tails[k], e.Now()+d)
				l.After(d, add(e.Now()+d), nil)
			case 5: // lane, at the current instant
				l.At(e.Now(), add(e.Now()), nil)
			case 6, 7: // Step: interleave dispatch with scheduling
				e.Step()
			}
			if e.Pending() != len(model)-len(got) {
				return false
			}
		}
		e.Run()
		if len(got) != len(model) {
			return false
		}
		// The reference: stable sort by time keeps scheduling order within
		// an instant, which is exactly the (time, seq) contract.
		sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
		for i := range model {
			if got[i].at != model[i].at || got[i].seq != model[i].seq {
				return false
			}
		}
		return true
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
// scheduling through AtFunc, AfterFunc, Lane.At and Lane.After (with a
// reused handler) and Waker arming must not allocate. The heap and the
// lane's ring are pre-grown so slice growth (a one-time, amortized cost) is
// excluded.
func TestSteadyStateSchedulingZeroAlloc(t *testing.T) {
	e := New()
	w := NewWaker(e, func() {})
	l := e.NewLane()
	handler := func(any) {}
	for i := 0; i < 64; i++ { // pre-grow the heap's and the lane's backing arrays
		e.AtFunc(Time(i), handler, nil)
		l.At(Time(i), handler, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		now := e.Now()
		e.AtFunc(now+5, handler, w)
		e.AfterFunc(10, handler, nil)
		l.At(now+3, handler, nil)
		l.After(4, handler, nil)
		w.WakeAt(now + 7)
		w.WakeAt(now + 2) // supersede
		e.RunUntil(now + 20)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocated %v per run, want 0", allocs)
	}
}

// TestHeapDeepOrdering exercises sift-down through several 4-ary levels
// (hundreds of pending events) against a full reference ordering.
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
