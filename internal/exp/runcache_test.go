package exp

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/sim"
)

// cacheTestFaults degrade both device kinds inside a 1/2 us run.
var cacheTestFaults = []fault.Window{
	{Kind: fault.DRAMThrottle, StartNs: 1500, DurationNs: 1000, Magnitude: 2},
	{Kind: fault.PauseStorm, StartNs: 2000, DurationNs: 800},
}

// A run cached by one experiment serves every other experiment
// byte-identically: every registered experiment, plus faulted and DDIO
// variants, gives the uncached bytes through one shared cache, whichever
// experiment fills the cache first.
func TestSharedRunsByteIdentical(t *testing.T) {
	var specs []Spec
	for _, name := range Experiments() {
		specs = append(specs, Spec{Experiment: name})
	}
	for _, name := range []string{"quadrant", "rdma", "fig18"} {
		specs = append(specs, Spec{Experiment: name, Faults: cacheTestFaults})
	}
	specs = append(specs, Spec{Experiment: "fig3", DDIO: true})
	for i := range specs {
		specs[i].WarmupNs, specs[i].WindowNs = 1000, 2000
	}

	opt := Defaults()
	want := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := RunSpecJSON(s, opt)
		if err != nil {
			t.Fatalf("%s: %v", s.Experiment, err)
		}
		want[i] = b
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	for _, pass := range []string{"registry order", "reverse order"} {
		opt.Runs = NewRunCache()
		for _, i := range order {
			got, err := RunSpecJSON(specs[i], opt)
			if err != nil {
				t.Fatalf("%s, %s: %v", pass, specs[i].Experiment, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s: %s (faults %v, ddio %v) differs from its uncached bytes",
					pass, specs[i].Experiment, specs[i].Faults != nil, specs[i].DDIO)
			}
		}
		if st := opt.Runs.Stats(); st.Hits == 0 {
			t.Errorf("%s: no lookup hit the shared cache (%+v)", pass, st)
		}
		slices.Reverse(order)
	}
}

// Lookups that differ in exactly one input the run reads all miss, while
// equal configs share whatever built them.
func TestSharedRunsNoFalseSharing(t *testing.T) {
	base := Defaults()
	base.Warmup, base.Window = sim.Microsecond, 2*sim.Microsecond
	base.Runs = NewRunCache()
	variants := map[string]func(o *Options){
		"base":    func(*Options) {},
		"preset":  func(o *Options) { o.Preset = host.IceLake },
		"ddio":    func(o *Options) { o.DDIO = true },
		"warmup":  func(o *Options) { o.Warmup += sim.Nanosecond },
		"window":  func(o *Options) { o.Window += sim.Nanosecond },
		"faults":  func(o *Options) { o.Faults = fault.Schedule(cacheTestFaults[:1]) },
		"audit":   func(o *Options) { o.Audit = !o.Audit },
		"reserve": func(o *Options) { o.Preset = withReserve(o.Preset, 4) },
	}
	first := make(map[string]Measure)
	for name, vary := range variants {
		o := base
		vary(&o)
		first[name] = quadrantRun(o, Q1, 1, true)
	}
	// The device kind: the storage and NIC baselines share a runKey.
	storage, nic := quadrantRun(base, Q1, 0, true), rdmaBaseline(base, Q1)
	if st := base.Runs.Stats(); st.Misses != int64(len(variants))+2 || st.Hits != 0 || st.Waits != 0 {
		t.Fatalf("one-input variants shared a run: %+v, want %d misses and no hits", st, len(variants)+2)
	}
	if storage == nic {
		t.Fatal("storage and NIC baselines measured the same")
	}

	// The key is the config's content, not the function that built it.
	same := base
	same.Preset = withReserve(base.Preset, 0)
	if got := quadrantRun(same, Q1, 1, true); got != first["base"] {
		t.Fatal("a preset closure building the base config measured differently")
	}
	if st := base.Runs.Stats(); st.Hits != 1 {
		t.Fatalf("an equal config built by another closure missed: %+v", st)
	}
}

// withReserve wraps a preset to reserve n WPQ slots per channel for P2M
// writes, as RunMCIsolationStudy does.
func withReserve(preset func() host.Config, n int) func() host.Config {
	return func() host.Config {
		cfg := preset()
		cfg.MC.WPQReserveP2M = n
		return cfg
	}
}

// A config holding a non-nil pointer would key by address, so its runs
// bypass the cache.
func TestSharedRunsSkipPointerConfigs(t *testing.T) {
	opt := Defaults()
	opt.Warmup, opt.Window = sim.Microsecond, 2*sim.Microsecond
	opt.Runs = NewRunCache()
	pf := cpu.DefaultPrefetcher()
	opt.Preset = func() host.Config {
		cfg := host.CascadeLake()
		cfg.Core.Prefetch = pf
		return cfg
	}
	quadrantRun(opt, Q1, 1, false)
	quadrantRun(opt, Q1, 1, false)
	if st := opt.Runs.Stats(); st != (RunCacheStats{}) {
		t.Fatalf("a run keyed by a pointer address reached the cache: %+v", st)
	}
}

// The 96 host-cold point specs repeat 160 of their 240 cacheable runs:
// every quadrant spec runs both isolated baselines and its colocated point,
// every rdma spec the NIC baseline and the C2M-alone run, and only 40 of
// those are distinct per testbed. The counts are the same in any order,
// and the bytes equal the uncached ones.
func TestSharedRunsHostColdCounts(t *testing.T) {
	var specs []Spec
	for _, preset := range []string{"cascadelake", "icelake"} {
		for _, e := range []string{"quadrant", "rdma"} {
			for q := 1; q <= 4; q++ {
				for c := 1; c <= 6; c++ {
					specs = append(specs, Spec{Experiment: e, Preset: preset, Quadrant: q, Cores: []int{c},
						WarmupNs: 1000, WindowNs: 2000})
				}
			}
		}
	}
	opt := Defaults()
	want := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := RunSpecJSON(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	shuffled := rand.New(rand.NewPCG(1, 2)).Perm(len(specs))
	for _, order := range [][]int{nil, shuffled} {
		opt.Runs = NewRunCache()
		for k := range specs {
			i := k
			if order != nil {
				i = order[k]
			}
			got, err := RunSpecJSON(specs[i], opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("spec %+v differs from its uncached bytes", specs[i])
			}
		}
		if st := opt.Runs.Stats(); st.Misses != 80 || st.Hits != 160 || st.Waits != 0 || st.Entries != 80 {
			t.Errorf("shuffled=%v: %+v, want 80 misses, 160 hits, 80 entries", order != nil, st)
		}
	}
}

// A four-quadrant figure's series share their baselines: fig3 and fig11
// look up 52 quadrant runs and need 38 (four device baselines share two
// runs, 24 isolated runs share 12), fig18 and fig27 look up 28 and need 14
// (the colocated RDMA runs are not cached). The counts hold at any
// parallelism; only the split of repeats into hits and waits varies.
func TestFourQuadrantFiguresShareRuns(t *testing.T) {
	for _, tc := range []struct {
		name     string
		distinct int64
	}{{"fig3", 38}, {"fig11", 38}, {"fig18", 14}, {"fig27", 14}} {
		for _, par := range []int{1, 8} {
			opt := fastOpt(par)
			opt.Runs = NewRunCache()
			if _, err := RunSpec(Spec{Experiment: tc.name, WarmupNs: 1000, WindowNs: 2000}, opt); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if st := opt.Runs.Stats(); st.Misses != tc.distinct || st.Hits+st.Waits != 14 {
				t.Errorf("%s at parallelism %d: %+v, want %d misses and 14 hits plus waits",
					tc.name, par, st, tc.distinct)
			}
		}
	}
}

// perQuadrant hands all four series one run cache: the caller's, or a
// private one for the call when the caller has none.
func TestPerQuadrantSharesOneCache(t *testing.T) {
	seen := func(opt Options) map[*RunCache]bool {
		caches := perQuadrant(opt, func(_ Quadrant, opt Options) []*RunCache { return []*RunCache{opt.Runs} })
		out := make(map[*RunCache]bool)
		for _, c := range caches {
			out[c[0]] = true
		}
		return out
	}
	if got := seen(fastOpt(1)); len(got) != 1 || got[nil] {
		t.Errorf("without a cache: the series saw %v, want one private cache", got)
	}
	opt := fastOpt(1)
	opt.Runs = NewRunCache()
	if got := seen(opt); len(got) != 1 || !got[opt.Runs] {
		t.Errorf("with a cache: the series saw %v, want the caller's %p", got, opt.Runs)
	}
}

// A cached Measure is returned by value; it must hold no reference a
// caller could mutate through, and a full cache must stay under 1 MiB.
func TestMeasureHoldsNoReferences(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %v: a cached copy would alias it", path, typ.Kind())
		}
	}
	check("Measure", reflect.TypeOf(Measure{}))
	if size := unsafe.Sizeof(Measure{}) * runCacheCap; size >= 1<<20 {
		t.Errorf("a full run cache holds %d bytes of measurements, want under 1 MiB", size)
	}
}

// waitFor polls cond until it holds, or for 10 s. It reports a timeout
// with t.Errorf, so simulated runs on other goroutines may call it.
func waitFor(t *testing.T, what string, cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
	}
}

// Eight concurrent lookups of one missing run simulate it once, and every
// caller receives the same measurement.
func TestRunCacheSingleFlight(t *testing.T) {
	c := NewRunCache()
	var runs atomic.Int32
	run := func() Measure {
		runs.Add(1)
		waitFor(t, "seven waiters", func() bool { return c.Stats().Waits == 7 })
		return Measure{C2MBW: 42}
	}
	got := make([]Measure, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.measure(runCacheKey{}, run)
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("the run executed %d times, want once", runs.Load())
	}
	for i, m := range got {
		if m != (Measure{C2MBW: 42}) {
			t.Fatalf("lookup %d got %+v", i, m)
		}
	}
	if st := c.Stats(); st != (RunCacheStats{Misses: 1, Waits: 7, Entries: 1}) {
		t.Fatalf("stats %+v, want 1 miss, 7 waits, 1 entry", st)
	}

	// The same through real simulations, whatever the interleaving.
	opt := Defaults()
	opt.Warmup, opt.Window = sim.Microsecond, 2*sim.Microsecond
	want := quadrantRun(opt, Q3, 2, true)
	opt.Runs = NewRunCache()
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = quadrantRun(opt, Q3, 2, true)
		}()
	}
	wg.Wait()
	for i, m := range got {
		if m != want {
			t.Fatalf("concurrent lookup %d measured differently from an uncached run", i)
		}
	}
	if st := opt.Runs.Stats(); st.Misses != 1 || st.Hits+st.Waits != 7 {
		t.Fatalf("stats %+v, want 1 miss and 7 hits or waits", st)
	}
}

// A run that panics re-panics on its own goroutine and is not cached; its
// waiters wake and run it themselves, once.
func TestRunCachePanicIsNotCached(t *testing.T) {
	c := NewRunCache()
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.measure(runCacheKey{}, func() Measure {
			waitFor(t, "three waiters", func() bool { return c.Stats().Waits == 3 })
			panic("boom")
		})
	}()
	waitFor(t, "the panicking run to start", func() bool { return c.Stats().Misses == 1 })

	var reruns atomic.Int32
	got := make(chan Measure, 3)
	for range 3 {
		go func() {
			got <- c.measure(runCacheKey{}, func() Measure {
				reruns.Add(1)
				return Measure{P2MBW: 7}
			})
		}()
	}
	if r := <-panicked; r != "boom" {
		t.Fatalf("the running goroutine recovered %v, want its own panic", r)
	}
	for range 3 {
		select {
		case m := <-got:
			if m != (Measure{P2MBW: 7}) {
				t.Fatalf("a waiter received %+v, not its own rerun's measurement", m)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter of the panicked run hangs")
		}
	}
	if reruns.Load() != 1 {
		t.Fatalf("the waiters reran %d times, want once", reruns.Load())
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits+st.Waits != 5 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses, 5 hits or waits, 1 entry", st)
	}
}

// A full cache evicts its least recently used run.
func TestRunCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewRunCache()
	key := func(i int) runCacheKey { return runCacheKey{run: runKey{cores: i}} }
	run := func() Measure { return Measure{} }
	for i := 0; i < runCacheCap; i++ {
		c.measure(key(i), run)
	}
	c.measure(key(0), run) // now the most recently used
	c.measure(key(runCacheCap), run)
	if st := c.Stats(); st.Evictions != 1 || st.Entries != runCacheCap || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 eviction, %d entries, 1 hit", st, runCacheCap)
	}
	c.measure(key(0), run)
	c.measure(key(1), run)
	if st := c.Stats(); st.Hits != 2 || st.Misses != runCacheCap+2 {
		t.Fatalf("stats %+v: run 0 should have stayed and run 1 been evicted", st)
	}
}
