package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// fastOpt keeps spec tests cheap; result-affecting knobs live in the spec.
func fastOpt(parallelism int) Options {
	o := Defaults()
	o.Parallelism = parallelism
	return o
}

// fastSpecs is a cross-section of experiment shapes at tiny windows.
func fastSpecs() []Spec {
	return []Spec{
		{Experiment: "quadrant", Quadrant: 2, Cores: []int{1, 3}, WarmupNs: 1000, WindowNs: 2000},
		{Experiment: "rdma", Quadrant: 1, Cores: []int{2}, WarmupNs: 1000, WindowNs: 2000, DDIO: true},
		{Experiment: "ratio", Cores: []int{2}, WriteFracs: []float64{0, 1}, WarmupNs: 1000, WindowNs: 2000},
		{Experiment: "mcisolation", Cores: []int{2}, Reserve: 8, WarmupNs: 1000, WindowNs: 2000},
		{Experiment: "prefetch", Cores: []int{1}, WarmupNs: 1000, WindowNs: 2000},
		{Experiment: "hostcc", Quadrant: 3, Cores: []int{2}, WarmupNs: 1000, WindowNs: 2000},
	}
}

// The canonical JSON bytes are a pure function of the spec: any sweep
// parallelism produces identical bytes. This is the guarantee hostnetd's
// content-addressed cache and the CLI/daemon byte-identity rest on.
func TestRunSpecJSONDeterministic(t *testing.T) {
	for _, spec := range fastSpecs() {
		spec := spec
		t.Run(spec.Experiment, func(t *testing.T) {
			t.Parallel()
			serial, err := RunSpecJSON(spec, fastOpt(1))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			wide, err := RunSpecJSON(spec, fastOpt(8))
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !bytes.Equal(serial, wide) {
				t.Fatalf("bytes differ between parallelism 1 and 8:\n%s\nvs\n%s", serial, wide)
			}
		})
	}
}

// Every result type survives a JSON round trip byte-for-byte: decode the
// envelope into the experiment's concrete type via NewResultValue,
// re-marshal, and get the original bytes back. This pins both the stable
// field order and that no result type loses information in JSON.
func TestResultRoundTrip(t *testing.T) {
	for _, spec := range fastSpecs() {
		spec := spec
		t.Run(spec.Experiment, func(t *testing.T) {
			t.Parallel()
			orig, err := RunSpecJSON(spec, fastOpt(4))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var envelope struct {
				Spec   Spec            `json:"spec"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(orig, &envelope); err != nil {
				t.Fatalf("decode envelope: %v", err)
			}
			if !specEqual(envelope.Spec, spec.Normalized()) {
				t.Fatalf("envelope spec %+v != normalized %+v", envelope.Spec, spec.Normalized())
			}
			typed := NewResultValue(spec.Experiment)
			if typed == nil {
				t.Fatalf("NewResultValue(%q) = nil", spec.Experiment)
			}
			if err := json.Unmarshal(envelope.Result, typed); err != nil {
				t.Fatalf("decode result into %T: %v", typed, err)
			}
			again, err := json.Marshal(Result{Spec: envelope.Spec, Result: typed})
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(orig, again) {
				t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", orig, again)
			}
		})
	}
}

func specEqual(a, b Spec) bool {
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return bytes.Equal(aj, bj)
}

// Equivalent spellings normalize to one canonical form and one hash;
// result-affecting differences change the hash.
func TestCanonicalHashing(t *testing.T) {
	base := Spec{Experiment: "quadrant", Cores: []int{1}}
	explicit := Spec{Experiment: "quadrant", Quadrant: 1, Cores: []int{1},
		WarmupNs: DefaultWarmupNs, WindowNs: DefaultWindowNs, Preset: "cascadelake"}
	h1, err := base.Hash()
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	if h1 != h2 {
		t.Errorf("equivalent specs hash differently: %s vs %s", h1, h2)
	}
	// Knobs the experiment ignores do not perturb the hash.
	noisy := base
	noisy.Reserve = 99 // quadrant has no reserve knob
	if h3, _ := noisy.Hash(); h3 != h1 {
		t.Errorf("ignored knob changed the hash")
	}
	// Result-affecting knobs do.
	for name, mut := range map[string]Spec{
		"ddio":     {Experiment: "quadrant", Cores: []int{1}, DDIO: true},
		"quadrant": {Experiment: "quadrant", Quadrant: 2, Cores: []int{1}},
		"preset":   {Experiment: "quadrant", Cores: []int{1}, Preset: "icelake"},
		"window":   {Experiment: "quadrant", Cores: []int{1}, WindowNs: 12345},
		"cores":    {Experiment: "quadrant", Cores: []int{2}},
	} {
		if hm, _ := mut.Hash(); hm == h1 {
			t.Errorf("%s change did not change the hash", name)
		}
	}
}

func TestCanonicalStableBytes(t *testing.T) {
	b, err := Spec{Experiment: "ratio"}.Canonical()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	want := `{"experiment":"ratio","warmup_ns":20000,"window_ns":100000,"cores":[5],"write_fracs":[0,0.25,0.5,0.75,1]}`
	if string(b) != want {
		t.Fatalf("canonical ratio spec:\n got %s\nwant %s", b, want)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Spec{
		{Experiment: "nope"},
		{Experiment: "quadrant", Quadrant: 7},
		{Experiment: "quadrant", Cores: []int{0}},
		{Experiment: "ratio", WriteFracs: []float64{1.5}},
		{Experiment: "fig3", WarmupNs: -1},
		// 18446744073709552 ns wraps to a 384 ps window as a sim.Time.
		{Experiment: "fig3", WarmupNs: 1000, WindowNs: 18446744073709552},
		{Experiment: "fig3", WarmupNs: sim.MaxNanoseconds, WindowNs: 1},
		{Experiment: "fig3", Preset: "skylake"},
		{Experiment: "mcisolation", Reserve: -2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
	if _, err := (Spec{Experiment: "nope"}).Canonical(); err == nil {
		t.Errorf("Canonical of invalid spec should fail")
	}
}

// Validate rejects what the simulator cannot build — more cores than the
// testbed has, or a WPQ reservation that leaves writes no slot — at both
// fidelities, so hostnetd answers 400 at submit instead of failing the
// run. crossval always runs on Cascade Lake.
func TestValidateBoundsBuildableHost(t *testing.T) {
	maxCores := map[string][2]int{ // experiment: {cascadelake, icelake}
		"quadrant": {8, 32}, "rdma": {8, 32}, "ratio": {8, 32}, "hostcc": {8, 32},
		"mcisolation": {8, 32}, "prefetch": {8, 32}, "faultsweep": {8, 32},
		"incast": {8, 32}, "crossval": {8, 8},
	}
	readers := experimentsWhere(func(e *experiment) bool { return e.shape.cores })
	if len(readers) != len(maxCores) {
		t.Fatalf("experiments reading cores: %v; the table covers %d", readers, len(maxCores))
	}
	for _, name := range readers {
		bounds, ok := maxCores[name]
		if !ok {
			t.Fatalf("%s reads cores but has no row", name)
		}
		fidelities := []string{""}
		if registry[name].analytic {
			fidelities = append(fidelities, FidelityAnalytic)
		}
		for i, preset := range []string{"cascadelake", "icelake"} {
			for _, fid := range fidelities {
				s := Spec{Experiment: name, Preset: preset, Fidelity: fid, Cores: []int{1, bounds[i]}}
				if _, err := s.Canonical(); err != nil {
					t.Errorf("%s on %s, fidelity %q: %d cores rejected: %v", name, preset, fid, bounds[i], err)
				}
				s.Cores = []int{1, bounds[i] + 1}
				if s.Validate() == nil {
					t.Errorf("%s on %s, fidelity %q: %d cores accepted", name, preset, fid, bounds[i]+1)
				}
			}
		}
	}
	for _, preset := range []string{"cascadelake", "icelake"} {
		s := Spec{Experiment: "mcisolation", Preset: preset, Reserve: 47}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: reserve 47 of 48 rejected: %v", preset, err)
		}
		s.Reserve = 48
		if s.Validate() == nil {
			t.Errorf("%s: reserve 48 of 48 accepted", preset)
		}
	}
}

func TestExperimentsCatalog(t *testing.T) {
	names := Experiments()
	if len(names) != len(registry) {
		t.Fatalf("Experiments() returned %d names, want %d", len(names), len(registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Experiments() not sorted: %v", names)
		}
	}
	for _, name := range names {
		if NewResultValue(name) == nil {
			t.Errorf("NewResultValue(%q) = nil", name)
		}
		if err := (Spec{Experiment: name}).Validate(); err != nil {
			t.Errorf("default spec for %q invalid: %v", name, err)
		}
		e := registry[name]
		if e.run == nil || e.text == nil {
			t.Errorf("%s: registry entry lacks a run function or a renderer", name)
		}
		if (e.split == nil) != (e.merge == nil) {
			t.Errorf("%s: split and merge must be declared together", name)
		}
	}
	if NewResultValue("bogus") != nil {
		t.Errorf("NewResultValue for unknown experiment should be nil")
	}
}

// SpecTasks matches the number of Progress callbacks an actual run makes,
// for every registered experiment (and a faulted incast, whose count
// doubles).
func TestSpecTasksMatchesProgress(t *testing.T) {
	var specs []Spec
	for _, name := range Experiments() {
		specs = append(specs, Spec{Experiment: name, WarmupNs: 500, WindowNs: 1000})
	}
	specs = append(specs, Spec{Experiment: "incast", WarmupNs: 500, WindowNs: 1000,
		Faults: []fault.Window{{Kind: fault.PauseStorm, StartNs: 600, DurationNs: 300}}})
	for _, spec := range specs {
		var calls atomic.Int64
		opt := fastOpt(2)
		opt.Progress = func() { calls.Add(1) }
		if _, err := RunSpec(spec, opt); err != nil {
			t.Fatalf("%s: run: %v", spec.Experiment, err)
		}
		if want := SpecTasks(spec); calls.Load() != int64(want) {
			t.Errorf("%s: %d progress calls, SpecTasks says %d", spec.Experiment, calls.Load(), want)
		}
	}
}

// Cancellation through Options.BaseCtx comes back from RunSpec as a
// wrapped context error, not a panic (the sweep helpers re-raise pool
// errors as panics; RunSpec is the boundary that translates expected
// cancellation back for API callers).
func TestRunSpecCancellationIsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := fastOpt(2)
	opt.BaseCtx = ctx
	spec := Spec{Experiment: "quadrant", Cores: []int{1, 2}, WarmupNs: 1000, WindowNs: 2000}
	if _, err := RunSpec(spec, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSpec under canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := RunSpecJSON(spec, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSpecJSON under canceled ctx: err = %v, want context.Canceled", err)
	}
}

// The error from an unknown experiment names the valid ones, so API users
// can self-correct.
func TestValidateErrorListsExperiments(t *testing.T) {
	err := (Spec{Experiment: "zzz"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "quadrant") {
		t.Fatalf("error %v should list valid experiments", err)
	}
}
