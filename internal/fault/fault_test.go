package fault

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// fakeTarget records every hook invocation with its simulated timestamp so
// tests can assert dispatch order and timing exactly.
type fakeTarget struct {
	eng *sim.Engine
	log []string
	ts  []sim.Time
}

func (f *fakeTarget) record(s string) { f.log = append(f.log, s); f.ts = append(f.ts, f.eng.Now()) }

func (f *fakeTarget) Channels() int { return 2 }
func (f *fakeTarget) FaultSetChannelSlowdown(ch int, factor float64) {
	if factor > 1 {
		f.record("throttle-on")
	} else {
		f.record("throttle-off")
	}
}
func (f *fakeTarget) FaultBankOffline(ch, bank int, until sim.Time) { f.record("bank-off") }
func (f *fakeTarget) FaultHoldCredits(nw, nr int) {
	if nw > 0 || nr > 0 {
		f.record("starve-on")
	} else {
		f.record("starve-off")
	}
}
func (f *fakeTarget) WriteCreditCapacity() int { return 92 }
func (f *fakeTarget) ReadCreditCapacity() int  { return 164 }
func (f *fakeTarget) FaultSetLinkDown(down bool) {
	if down {
		f.record("link-down")
	} else {
		f.record("link-up")
	}
}
func (f *fakeTarget) FaultSetPauseStorm(on bool) {
	if on {
		f.record("storm-on")
	} else {
		f.record("storm-off")
	}
}
func (f *fakeTarget) FaultSetLineMult(mult float64) {
	if mult > 1 {
		f.record("lane-slow")
	} else {
		f.record("lane-ok")
	}
}

func TestNormalizedFillsDefaultsAndClearsUnusedFields(t *testing.T) {
	s := Schedule{
		// Magnitude unused by LinkFlap: must be cleared.
		{Kind: LinkFlap, StartNs: 100, DurationNs: 50, Magnitude: 7, Channel: 3, Bank: 9},
		// Magnitude 0 fills the kind default; Bank unused by DRAMThrottle.
		{Kind: DRAMThrottle, StartNs: 10, DurationNs: 5, Channel: 1, Bank: 4},
		{Kind: IIOStarve, StartNs: 10, DurationNs: 5},
	}
	n := s.Normalized()
	want := Schedule{
		{Kind: DRAMThrottle, StartNs: 10, DurationNs: 5, Magnitude: 4, Channel: 1},
		{Kind: IIOStarve, StartNs: 10, DurationNs: 5, Magnitude: 0.5},
		{Kind: LinkFlap, StartNs: 100, DurationNs: 50},
	}
	if !reflect.DeepEqual(n, want) {
		t.Fatalf("Normalized = %+v, want %+v", n, want)
	}
	if !reflect.DeepEqual(n.Normalized(), n) {
		t.Fatal("Normalized is not idempotent")
	}
	if Schedule(nil).Normalized() != nil || (Schedule{}).Normalized() != nil {
		t.Fatal("empty schedule must normalize to nil")
	}
}

func TestNormalizedSortIsCanonical(t *testing.T) {
	a := Schedule{
		{Kind: PauseStorm, StartNs: 50, DurationNs: 10},
		{Kind: BankOffline, StartNs: 50, DurationNs: 10, Channel: 1, Bank: 2},
		{Kind: BankOffline, StartNs: 50, DurationNs: 10, Channel: 0, Bank: 3},
	}
	b := Schedule{a[2], a[0], a[1]}
	if !reflect.DeepEqual(a.Normalized(), b.Normalized()) {
		t.Fatal("permuted schedules must normalize identically")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
	}{
		{"unknown kind", Schedule{{Kind: "cosmic_ray", StartNs: 0, DurationNs: 1}}},
		{"negative start", Schedule{{Kind: LinkFlap, StartNs: -1, DurationNs: 1}}},
		{"zero duration", Schedule{{Kind: LinkFlap, StartNs: 0, DurationNs: 0}}},
		{"negative channel", Schedule{{Kind: DRAMThrottle, StartNs: 0, DurationNs: 1, Channel: -1}}},
		{"starve magnitude > 1", Schedule{{Kind: IIOStarve, StartNs: 0, DurationNs: 1, Magnitude: 1.5}}},
		{"throttle magnitude < 1", Schedule{{Kind: DRAMThrottle, StartNs: 0, DurationNs: 1, Magnitude: 0.5}}},
		{"lane magnitude < 1", Schedule{{Kind: LaneDegrade, StartNs: 0, DurationNs: 1, Magnitude: 0.25}}},
		{"throttle magnitude 1e7", Schedule{{Kind: DRAMThrottle, StartNs: 0, DurationNs: 1, Magnitude: 1e7}}},
		{"throttle magnitude 1e300", Schedule{{Kind: DRAMThrottle, StartNs: 0, DurationNs: 1, Magnitude: 1e300}}},
		{"lane magnitude 1e7", Schedule{{Kind: LaneDegrade, StartNs: 0, DurationNs: 1, Magnitude: 1e7}}},
		{"lane magnitude 1e300", Schedule{{Kind: LaneDegrade, StartNs: 0, DurationNs: 1, Magnitude: 1e300}}},
		// 18446744073709552 ns is 2^64 ps rounded up: as a sim.Time it wraps
		// to 384 ps, so the window would fire at once.
		{"start wraps sim.Time", Schedule{{Kind: DRAMThrottle, StartNs: 18446744073709552, DurationNs: 50000, Magnitude: 4}}},
		{"end past the longest time", Schedule{{Kind: PauseStorm, StartNs: sim.MaxNanoseconds, DurationNs: 1}}},
		{"same-target overlap", Schedule{
			{Kind: PauseStorm, StartNs: 0, DurationNs: 100},
			{Kind: PauseStorm, StartNs: 99, DurationNs: 100},
		}},
		{"same-channel throttle overlap", Schedule{
			{Kind: DRAMThrottle, StartNs: 0, DurationNs: 100, Channel: 1},
			{Kind: DRAMThrottle, StartNs: 50, DurationNs: 100, Channel: 1},
		}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.s)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	ok := []Schedule{
		nil,
		{},
		// Adjacent windows (end == next start) are not overlap.
		{{Kind: PauseStorm, StartNs: 0, DurationNs: 100}, {Kind: PauseStorm, StartNs: 100, DurationNs: 100}},
		// Same kind, different channel: concurrent is fine.
		{{Kind: DRAMThrottle, StartNs: 0, DurationNs: 100, Channel: 0}, {Kind: DRAMThrottle, StartNs: 0, DurationNs: 100, Channel: 1}},
		// Different kinds overlap freely.
		{{Kind: LinkFlap, StartNs: 0, DurationNs: 100}, {Kind: PauseStorm, StartNs: 0, DurationNs: 100}, {Kind: IIOStarve, StartNs: 0, DurationNs: 100}},
		// The largest multiplier, and a window ending exactly at the bound.
		{{Kind: DRAMThrottle, StartNs: 0, DurationNs: 100, Magnitude: MaxMagnitude}, {Kind: LaneDegrade, StartNs: 0, DurationNs: 100, Magnitude: MaxMagnitude}},
		{{Kind: PauseStorm, StartNs: sim.MaxNanoseconds - 100, DurationNs: 100}},
	}
	for _, s := range ok {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", s, err)
		}
	}
}

func TestValidateMaxWindows(t *testing.T) {
	s := make(Schedule, MaxWindows+1)
	for i := range s {
		s[i] = Window{Kind: PauseStorm, StartNs: int64(i) * 10, DurationNs: 5}
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted an oversized schedule")
	}
	if err := s[:MaxWindows].Validate(); err != nil {
		t.Fatalf("Validate rejected a MaxWindows schedule: %v", err)
	}
}

func TestWindowJSONRoundTrip(t *testing.T) {
	in := Schedule{
		{Kind: DRAMThrottle, StartNs: 1000, DurationNs: 500, Magnitude: 8, Channel: 1},
		{Kind: BankOffline, StartNs: 2000, DurationNs: 300, Channel: 0, Bank: 3},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Schedule
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	eng := sim.New()
	if in := NewInjector(eng, nil); in != nil {
		t.Fatal("empty schedule must yield a nil injector")
	}
	var in *Injector
	in.AttachDRAM(nil)
	in.AttachIIO(nil)
	in.AttachNIC(nil)
	in.AttachLink(nil)
	in.Start()
	if in.Active() != 0 || in.Schedule() != nil {
		t.Fatal("nil injector must report nothing")
	}
	if eng.Pending() != 0 {
		t.Fatal("nil injector scheduled events")
	}
}

func TestInjectorDispatchOrderAndTiming(t *testing.T) {
	eng := sim.New()
	f := &fakeTarget{eng: eng}
	in := NewInjector(eng, Schedule{
		{Kind: PauseStorm, StartNs: 10, DurationNs: 20},
		{Kind: LinkFlap, StartNs: 15, DurationNs: 5},
		{Kind: DRAMThrottle, StartNs: 40, DurationNs: 10, Magnitude: 8, Channel: 1},
		{Kind: BankOffline, StartNs: 40, DurationNs: 10, Channel: 0, Bank: 1},
		{Kind: IIOStarve, StartNs: 60, DurationNs: 10, Magnitude: 0.5},
		{Kind: LaneDegrade, StartNs: 80, DurationNs: 10, Magnitude: 2},
	})
	in.AttachDRAM(f)
	in.AttachIIO(f)
	in.AttachNIC(f)
	in.AttachLink(f)
	in.Start()

	eng.RunUntil(25 * sim.Nanosecond)
	if in.Active() != 1 { // storm open; flap opened at 15 and closed at 20
		t.Fatalf("Active = %d at t=25ns, want 1", in.Active())
	}
	eng.RunUntil(200 * sim.Nanosecond)
	if in.Active() != 0 {
		t.Fatalf("Active = %d after all windows, want 0", in.Active())
	}
	want := []string{
		"storm-on", "link-down", "link-up", "storm-off",
		"bank-off", "throttle-on", "throttle-off",
		"starve-on", "starve-off", "lane-slow", "lane-ok",
	}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("dispatch log = %v, want %v", f.log, want)
	}
	// Spot-check timestamps: apply at start, clear at start+duration.
	wantNs := []int64{10, 15, 20, 30, 40, 40, 50, 60, 70, 80, 90}
	for i, ts := range f.ts {
		if got := int64(ts / sim.Nanosecond); got != wantNs[i] {
			t.Fatalf("event %d (%s) at %dns, want %dns", i, f.log[i], got, wantNs[i])
		}
	}
}

func TestInjectorLateStartClamps(t *testing.T) {
	eng := sim.New()
	f := &fakeTarget{eng: eng}
	in := NewInjector(eng, Schedule{{Kind: PauseStorm, StartNs: 10, DurationNs: 20}})
	in.AttachNIC(f)
	eng.RunUntil(50 * sim.Nanosecond) // past the whole window
	in.Start()
	eng.RunUntil(60 * sim.Nanosecond)
	if !reflect.DeepEqual(f.log, []string{"storm-on", "storm-off"}) {
		t.Fatalf("late start log = %v, want apply+clear back to back", f.log)
	}
	for _, ts := range f.ts {
		if int64(ts/sim.Nanosecond) != 50 {
			t.Fatalf("late events must clamp to start time, got %v", f.ts)
		}
	}
	if in.Active() != 0 {
		t.Fatalf("Active = %d after clamped window, want 0", in.Active())
	}
	in.Start() // second Start must be a no-op
	if eng.Pending() != 0 {
		t.Fatal("double Start rescheduled events")
	}
}

func TestInjectorLateNICAttachment(t *testing.T) {
	// The exp layer attaches NICs after host assembly (and after Start);
	// windows must dispatch to whatever is attached when they fire.
	eng := sim.New()
	f := &fakeTarget{eng: eng}
	in := NewInjector(eng, Schedule{{Kind: LinkFlap, StartNs: 100, DurationNs: 50}})
	in.Start()
	eng.RunUntil(10 * sim.Nanosecond)
	in.AttachNIC(f) // late, but before the window opens
	eng.RunUntil(200 * sim.Nanosecond)
	if !reflect.DeepEqual(f.log, []string{"link-down", "link-up"}) {
		t.Fatalf("late-attached NIC log = %v", f.log)
	}
}

func TestStarveCreditMath(t *testing.T) {
	eng := sim.New()
	var gotW, gotR int
	f := &starveProbe{fakeTarget: &fakeTarget{eng: eng}, w: &gotW, r: &gotR}
	in := NewInjector(eng, Schedule{{Kind: IIOStarve, StartNs: 0, DurationNs: 10, Magnitude: 0.5}})
	in.AttachIIO(f)
	in.Start()
	eng.RunUntil(5 * sim.Nanosecond)
	if gotW != 46 || gotR != 82 {
		t.Fatalf("starve 0.5 of (92, 164) held (%d, %d), want (46, 82)", gotW, gotR)
	}
	eng.RunUntil(20 * sim.Nanosecond)
	if gotW != 0 || gotR != 0 {
		t.Fatalf("clear left (%d, %d) held", gotW, gotR)
	}
}

type starveProbe struct {
	*fakeTarget
	w, r *int
}

func (s *starveProbe) FaultHoldCredits(nw, nr int) { *s.w, *s.r = nw, nr }
