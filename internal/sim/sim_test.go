package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d", Nanosecond)
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatalf("unit ladder broken")
	}
	if got := (1500 * Picosecond).Nanoseconds(); got != 1.5 {
		t.Fatalf("Nanoseconds() = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "0.500ns"},
		{70 * Nanosecond, "70.000ns"},
		{3 * Microsecond, "3.000us"},
		{2 * Millisecond, "2.000ms"},
		{Second, "1.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.AtFunc(30, func(any) { order = append(order, 3) }, nil)
	e.AtFunc(10, func(any) { order = append(order, 1) }, nil)
	e.AtFunc(20, func(any) { order = append(order, 2) }, nil)
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

// TestZeroEngineUsable pins the Engine doc comment's promise: a zero value
// schedules and dispatches without New, near and past the horizon.
func TestZeroEngineUsable(t *testing.T) {
	var e Engine
	var got []Time
	fn := func(any) { got = append(got, e.Now()) }
	e.AtFunc(3*Microsecond, fn, nil)
	e.AtFunc(5, fn, nil)
	e.Run()
	if len(got) != 2 || got[0] != 5 || got[1] != 3*Microsecond {
		t.Fatalf("dispatched at %v, want [5 3µs]", got)
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtFunc(5, func(any) { order = append(order, i) }, nil)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of scheduling order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.AtFunc(10, func(any) {
		hits = append(hits, e.Now())
		e.AfterFunc(5, func(any) { hits = append(hits, e.Now()) }, nil)
	}, nil)
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.AtFunc(100, func(any) {}, nil)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatalf("scheduling in the past did not panic")
		}
	}()
	e.AtFunc(50, func(any) {}, nil)
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := map[Time]bool{}
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.AtFunc(at, func(any) { ran[at] = true }, nil)
	}
	e.RunUntil(25)
	if !ran[10] || !ran[20] || ran[30] || ran[40] {
		t.Fatalf("ran = %v", ran)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if !ran[30] || !ran[40] || e.Now() != 100 {
		t.Fatalf("second RunUntil: ran=%v now=%v", ran, e.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := New()
	hit := false
	e.AtFunc(25, func(any) { hit = true }, nil)
	e.RunUntil(25)
	if !hit {
		t.Fatalf("event at the RunUntil boundary did not fire")
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := Time(1); i <= 7; i++ {
		e.AtFunc(i, func(any) {}, nil)
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed())
	}
}

// Property: any batch of events fires in nondecreasing time order, and
// equal-time events fire in scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		type fired struct {
			at  Time
			idx int
		}
		var got []fired
		for i, r := range raw {
			at := Time(r % 997)
			i := i
			e.AtFunc(at, func(any) { got = append(got, fired{e.Now(), i}) }, nil)
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool {
			if got[a].at != got[b].at {
				return got[a].at < got[b].at
			}
			return got[a].idx < got[b].idx
		}) {
			return false
		}
		// Already in fired order, so sortedness of the fired slice as-is is
		// what we checked; also verify the engine clock ended at the max.
		var max Time
		for _, g := range got {
			if g.at > max {
				max = g.at
			}
		}
		return e.Now() == max || len(raw) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWakerCoalesces(t *testing.T) {
	e := New()
	calls := 0
	w := NewWaker(e, func() { calls++ })
	e.AtFunc(10, func(any) {
		w.Wake()
		w.Wake()
		w.Wake()
	}, nil)
	e.Run()
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (coalesced)", calls)
	}
}

func TestWakerEarlierRequestWins(t *testing.T) {
	e := New()
	var at []Time
	var w *Waker
	w = NewWaker(e, func() { at = append(at, e.Now()) })
	e.AtFunc(0, func(any) {
		w.WakeAt(50)
		w.WakeAt(20) // supersedes the 50
	}, nil)
	e.Run()
	if len(at) != 1 || at[0] != 20 {
		t.Fatalf("wake times = %v, want [20]", at)
	}
}

func TestWakerLaterRequestAbsorbed(t *testing.T) {
	e := New()
	var at []Time
	w := NewWaker(e, func() {})
	w2 := NewWaker(e, func() { at = append(at, e.Now()) })
	_ = w
	e.AtFunc(0, func(any) {
		w2.WakeAt(20)
		w2.WakeAt(50) // absorbed: a wake at 20 already covers it
	}, nil)
	e.Run()
	if len(at) != 1 || at[0] != 20 {
		t.Fatalf("wake times = %v, want [20]", at)
	}
}

func TestWakerReusableAfterFiring(t *testing.T) {
	e := New()
	var at []Time
	var w *Waker
	w = NewWaker(e, func() {
		at = append(at, e.Now())
		if len(at) == 1 {
			w.WakeAt(e.Now() + 30)
		}
	})
	e.AtFunc(10, func(any) { w.Wake() }, nil)
	e.Run()
	if len(at) != 2 || at[0] != 10 || at[1] != 40 {
		t.Fatalf("wake times = %v, want [10 40]", at)
	}
}

func TestWakerPastClamps(t *testing.T) {
	e := New()
	fired := Time(-1)
	w := NewWaker(e, func() { fired = e.Now() })
	e.AtFunc(100, func(any) { w.WakeAt(10) }, nil) // in the past: clamps to now
	e.Run()
	if fired != 100 {
		t.Fatalf("fired at %v, want 100", fired)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := RNG(42), RNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
	c := RNG(43)
	same := true
	a2 := RNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestRNGIsUsableRand(t *testing.T) {
	var _ *rand.Rand = RNG(1)
	r := RNG(7)
	n := r.IntN(10)
	if n < 0 || n >= 10 {
		t.Fatalf("IntN out of range: %d", n)
	}
}

func TestWakerSameInstantRearmFiresExactlyOnceMore(t *testing.T) {
	e := New()
	fires := 0
	var w *Waker
	w = NewWaker(e, func() {
		fires++
		if fires == 1 {
			// Re-arm for the very instant we are firing at. The waker
			// must fire exactly once more at this time — and repeated
			// same-instant requests must coalesce into that one wake.
			w.WakeAt(e.Now())
			w.WakeAt(e.Now())
		}
	})
	e.AtFunc(10, func(any) { w.Wake() }, nil)
	e.Run()
	if fires != 2 {
		t.Fatalf("fires = %d, want 2 (original + one same-instant re-arm)", fires)
	}
	if e.Now() != 10 {
		t.Fatalf("finished at %v, want 10 (re-arm must not advance time)", e.Now())
	}
}

func TestWakerSameInstantRearmChainProperty(t *testing.T) {
	// Property: a handler that re-arms for e.Now() on each of its first
	// `chain` firings produces exactly chain+1 firings, all at the original
	// wake time. This pins the "fires exactly once more" contract for
	// arbitrary chain depth.
	prop := func(n uint8) bool {
		chain := int(n % 32)
		e := New()
		fires := 0
		var w *Waker
		w = NewWaker(e, func() {
			fires++
			if fires <= chain {
				w.WakeAt(e.Now())
			}
		})
		e.AtFunc(5, func(any) { w.Wake() }, nil)
		e.Run()
		return fires == chain+1 && e.Now() == 5
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
