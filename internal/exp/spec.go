package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/sim"
)

// Spec is the machine-readable description of one experiment job: the
// common currency of `hostnetsim -format json` and the hostnetd daemon.
// Because every sweep is deterministic and bit-identical at any parallelism
// (pinned by the determinism tests in this package), a Spec fully determines
// its result — which is what makes results content-addressable: hostnetd
// caches and deduplicates jobs by Hash of the normalized Spec.
//
// Execution-only knobs (parallelism, audit, progress observation) are
// deliberately NOT part of the Spec: they cannot change the result, so they
// must not change the cache key.
type Spec struct {
	// Experiment names the artifact; Experiments() lists the valid names.
	Experiment string `json:"experiment"`
	// WarmupNs and WindowNs are the simulated warmup and measurement
	// interval in nanoseconds; 0 means the §2.2 defaults (20 000 / 100 000).
	WarmupNs int64 `json:"warmup_ns,omitempty"`
	WindowNs int64 `json:"window_ns,omitempty"`
	// Preset picks the testbed: "cascadelake" (default) or "icelake".
	// Ignored by the app figures, which fix their own testbed.
	Preset string `json:"preset,omitempty"`
	// DDIO enables DDIO where the experiment honors the knob.
	DDIO bool `json:"ddio,omitempty"`
	// Quadrant selects the §2.2 scenario (1-4) for quadrant/rdma/hostcc.
	Quadrant int `json:"quadrant,omitempty"`
	// Cores is the C2M core-count sweep; experiments that take a single
	// count (ratio, hostcc, mcisolation, prefetch) use the first element.
	Cores []int `json:"cores,omitempty"`
	// WriteFracs is the store-fraction sweep of the ratio experiment.
	WriteFracs []float64 `json:"write_fracs,omitempty"`
	// Reserve is the per-channel WPQ reservation of mcisolation.
	Reserve int `json:"reserve,omitempty"`
	// Faults schedules transient degradation windows for the experiments
	// whose registry shape reads them (fig3, fig18 and the quadrant, rdma,
	// hostcc, faultsweep and incast sweeps). Faults change results, so they
	// are part of the spec — and thus of the cache key — unlike the
	// execution-only knobs. Times are absolute simulated nanoseconds from
	// engine start (warmup begins at 0).
	Faults []fault.Window `json:"faults,omitempty"`
	// Fabric is the rack shape and traffic pattern for multi-host
	// experiments (incast). Nil means the experiment's default rack.
	Fabric *FabricSpec `json:"fabric,omitempty"`
	// Fidelity picks the tier that answers the spec: "sim" (default) runs
	// the full discrete-event simulation; "analytic" answers from the §7
	// predictive model in microseconds, for the specs the model covers
	// (quadrant/rdma/hostcc points on the calibrated testbed). Fidelity
	// changes the result, so it participates in the content address —
	// normalization maps "sim" to the absent field, keeping every
	// pre-fidelity content address unchanged.
	Fidelity string `json:"fidelity,omitempty"`
}

// The fidelity tiers.
const (
	FidelitySim      = "sim"
	FidelityAnalytic = "analytic"
)

// Default simulated intervals (§2.2: 20 us warmup, 100 us window).
const (
	DefaultWarmupNs = 20_000
	DefaultWindowNs = 100_000
)

// defaultWriteFracs is the ratio experiment's store-fraction sweep.
func defaultWriteFracs() []float64 { return []float64{0, 0.25, 0.5, 0.75, 1} }

// Normalized returns the canonical form of the spec: defaults filled in and
// knobs the experiment does not read cleared, so that every spec describing
// the same computation normalizes to the same value. Hash and Canonical
// operate on this form.
func (s Spec) Normalized() Spec {
	n := Spec{Experiment: s.Experiment, WarmupNs: s.WarmupNs, WindowNs: s.WindowNs}
	if n.WarmupNs <= 0 {
		n.WarmupNs = DefaultWarmupNs
	}
	if n.WindowNs <= 0 {
		n.WindowNs = DefaultWindowNs
	}
	// "sim" is the default tier: normalize it to the absent field so specs
	// submitted before fidelity existed keep their content addresses
	// byte-for-byte (pinned by TestFidelityHashInvariance). Any other
	// value — including unknown ones Validate rejects — is kept and hashes
	// distinctly.
	if s.Fidelity != "" && s.Fidelity != FidelitySim {
		n.Fidelity = s.Fidelity
	}
	if n.Fidelity == FidelityAnalytic {
		// The closed-form model has no simulated clock: the interval knobs
		// are unread, so clear them like any other unread knob and let
		// every (warmup, window) variant collapse onto one address.
		n.WarmupNs, n.WindowNs = 0, 0
	}
	e, ok := registry[s.Experiment]
	if !ok {
		return n // validation rejects it; keep the rest untouched
	}
	shape := e.shape
	if shape.preset && s.Preset != "" && s.Preset != "cascadelake" {
		n.Preset = s.Preset
	}
	if shape.ddio {
		n.DDIO = s.DDIO
	}
	if shape.quadrant {
		n.Quadrant = s.Quadrant
		if n.Quadrant == 0 {
			n.Quadrant = shape.defQuadrant
		}
	}
	if shape.cores {
		n.Cores = append([]int(nil), s.Cores...)
		if len(n.Cores) == 0 {
			if shape.defCores != nil {
				n.Cores = append([]int(nil), shape.defCores...)
			} else {
				n.Cores = DefaultCoreSweep()
			}
		}
	}
	if shape.fracs {
		n.WriteFracs = append([]float64(nil), s.WriteFracs...)
		if len(n.WriteFracs) == 0 {
			n.WriteFracs = defaultWriteFracs()
		}
	}
	if shape.reserve {
		n.Reserve = s.Reserve
		if n.Reserve == 0 {
			n.Reserve = 16
		}
	}
	if shape.faults {
		n.Faults = fault.Schedule(s.Faults).Normalized()
		if n.Faults == nil && shape.defFaults {
			n.Faults = DefaultFaultSchedule(n.WarmupNs, n.WindowNs)
		}
	}
	if shape.fabric {
		fs := FabricSpec{}
		if s.Fabric != nil {
			fs = *s.Fabric
		}
		nf := fs.Normalized()
		n.Fabric = &nf
	}
	return n
}

// DefaultFaultSchedule is the faultsweep demo: a PFC pause storm, a DRAM
// channel throttle, and an IIO credit starvation staggered across the
// measurement window so each domain's degradation and recovery is visible.
func DefaultFaultSchedule(warmupNs, windowNs int64) fault.Schedule {
	q := windowNs / 4
	if q <= 0 {
		q = 1
	}
	return fault.Schedule{
		{Kind: fault.PauseStorm, StartNs: warmupNs + q/2, DurationNs: q},
		{Kind: fault.DRAMThrottle, StartNs: warmupNs + 2*q, DurationNs: q, Channel: 0},
		{Kind: fault.IIOStarve, StartNs: warmupNs + 3*q, DurationNs: q},
	}.Normalized()
}

// Validate checks a spec without normalizing it; RunSpec validates the
// normalized form, so callers usually go through Canonical or RunSpec.
func (s Spec) Validate() error {
	e, ok := registry[s.Experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q (valid: %v)", s.Experiment, Experiments())
	}
	shape := e.shape
	if s.WarmupNs < 0 || s.WindowNs < 0 {
		return fmt.Errorf("negative interval: warmup_ns=%d window_ns=%d", s.WarmupNs, s.WindowNs)
	}
	if s.WindowNs > sim.MaxNanoseconds-s.WarmupNs {
		return fmt.Errorf("warmup_ns %d + window_ns %d exceeds %d, the longest simulated time",
			s.WarmupNs, s.WindowNs, sim.MaxNanoseconds)
	}
	switch s.Fidelity {
	case "", FidelitySim, FidelityAnalytic:
	default:
		return fmt.Errorf("unknown fidelity %q (valid: %q, %q)", s.Fidelity, FidelitySim, FidelityAnalytic)
	}
	if s.Fidelity == FidelityAnalytic && s.Experiment == "crossval" {
		return fmt.Errorf("crossval is inherently cross-fidelity; submit it without fidelity=analytic")
	}
	if shape.preset {
		switch s.Preset {
		case "", "cascadelake", "icelake":
		default:
			return fmt.Errorf("unknown preset %q (valid: cascadelake, icelake)", s.Preset)
		}
	}
	if shape.quadrant && s.Quadrant != 0 && (s.Quadrant < 1 || s.Quadrant > 4) {
		return fmt.Errorf("quadrant %d out of range 1-4", s.Quadrant)
	}
	for _, c := range s.Cores {
		if c < 1 {
			return fmt.Errorf("core count %d < 1", c)
		}
	}
	for _, f := range s.WriteFracs {
		if f < 0 || f > 1 {
			return fmt.Errorf("write fraction %v outside [0,1]", f)
		}
	}
	if s.Reserve < 0 {
		return fmt.Errorf("reserve %d < 0", s.Reserve)
	}
	if shape.cores || shape.reserve {
		// Bound what the simulator can build by the testbed the normalized
		// spec's hosts are built from (crossval's is always Cascade Lake).
		tb := s.Normalized().options(Options{}).hostConfig()
		for _, c := range s.Cores {
			if shape.cores && c > tb.MaxCores {
				return fmt.Errorf("core count %d exceeds %s's %d cores", c, tb.Name, tb.MaxCores)
			}
		}
		if shape.reserve && s.Reserve >= tb.MC.WPQCap {
			return fmt.Errorf("reserve %d must be below the %d-slot WPQ", s.Reserve, tb.MC.WPQCap)
		}
	}
	if shape.faults {
		if err := fault.Schedule(s.Faults).Validate(); err != nil {
			return err
		}
	}
	if shape.fabric && s.Fabric != nil {
		if err := s.Fabric.Validate(); err != nil {
			return err
		}
		if s.Fabric.Partitioned && len(s.Faults) > 0 {
			return fmt.Errorf("fabric: partitioned racks do not support fault injection (drop faults or partitioned)")
		}
	}
	return nil
}

// Canonical returns the canonical JSON encoding of the normalized spec:
// fixed field order (struct order), defaults made explicit, unread knobs
// dropped. Two specs describing the same computation produce identical
// bytes — the soundness basis of hostnetd's content-addressed cache.
func (s Spec) Canonical() ([]byte, error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the content address of the spec: hex SHA-256 of Canonical.
func (s Spec) Hash() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// options applies the spec's result-affecting knobs onto the caller's
// execution options (parallelism, audit, ctx, progress pass through).
func (n Spec) options(opt Options) Options {
	opt.Warmup = sim.Time(n.WarmupNs) * sim.Nanosecond
	opt.Window = sim.Time(n.WindowNs) * sim.Nanosecond
	opt.DDIO = n.DDIO
	if n.Preset == "icelake" {
		opt.Preset = host.IceLake
	} else {
		opt.Preset = host.CascadeLake
	}
	opt.Faults = fault.Schedule(n.Faults)
	return opt
}

// Fig19Result pairs the two TCP case studies of Fig 19/25/26.
type Fig19Result struct {
	Read      []DCTCPPoint
	ReadWrite []DCTCPPoint
}

func runFig19(opt Options) Fig19Result {
	read, rw := RunFig19(opt)
	return Fig19Result{Read: read, ReadWrite: rw}
}

// Fig29Result pairs the two formula-validation series of Fig 29/30.
type Fig29Result struct {
	Read      []DCTCPFormulaPoint
	ReadWrite []DCTCPFormulaPoint
}

func runFig29(opt Options) Fig29Result {
	read, rw := RunFig29(opt)
	return Fig29Result{Read: read, ReadWrite: rw}
}

// RunSpec normalizes, validates, and executes a spec, returning the
// experiment's structured result (the same value the Run* entry points
// return). Execution-only behavior — worker-pool size, auditing,
// cancellation, progress — comes from opt; the result depends only on the
// spec. Cancellation through Options.BaseCtx comes back as a wrapped
// context error; panics inside the simulation (genuine bugs, audit
// violations) propagate so callers wanting isolation can wrap RunSpec in
// runner.Do, as hostnetd does.
func RunSpec(s Spec, opt Options) (v any, err error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if n.Fidelity == FidelityAnalytic {
		// The analytic tier is pure arithmetic: no engine, no options, no
		// cancellation window. Specs outside the model's domain come back
		// as a wrapped *analytic.UnsupportedError (HTTP 422 in hostnetd).
		return runSpecAnalytic(n)
	}
	opt = n.options(opt)
	// The sweep helpers (pdo/pmap) re-raise pool errors as panics because
	// the typed Run* entry points have no error returns; at this boundary a
	// cancellation is an expected outcome, not a bug, so translate it back.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok && (errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
			v, err = nil, fmt.Errorf("experiment %s interrupted: %w", n.Experiment, e)
			return
		}
		panic(r)
	}()
	return registry[n.Experiment].run(n, opt)
}

// NewResultValue returns a pointer to the zero value of the experiment's
// concrete result type, for decoding a Result envelope's payload back into
// typed form. Nil for unknown experiments.
func NewResultValue(experiment string) any {
	if e, ok := registry[experiment]; ok {
		return e.result()
	}
	return nil
}

// Result is the JSON envelope emitted for a completed spec: the normalized
// spec that produced the payload, then the payload itself. Both
// `hostnetsim -format json` and hostnetd's result endpoint emit exactly
// these bytes (compact encoding/json, stable struct field order), so the
// two surfaces are byte-identical for the same spec — pinned by the
// end-to-end test in internal/serve.
type Result struct {
	Spec   Spec `json:"spec"`
	Result any  `json:"result"`
}

// RunSpecJSON executes a spec and returns the canonical JSON Result bytes.
// Determinism makes these bytes a pure function of the spec: the JSON from
// any parallelism, any surface (CLI or daemon), any repeat run is
// byte-identical (pinned by TestRunSpecJSONDeterministic).
func RunSpecJSON(s Spec, opt Options) ([]byte, error) {
	n := s.Normalized()
	v, err := RunSpec(n, opt)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(Result{Spec: n, Result: v})
	if err != nil {
		return nil, fmt.Errorf("encoding %s result: %w", n.Experiment, err)
	}
	return b, nil
}

// SpecTasks is the number of sweep tasks a spec fans out (the number of
// Options.Progress callbacks a run makes), so streaming clients can show
// completion against a known denominator. 0 means the run reports no
// progress.
func SpecTasks(s Spec) int {
	n := s.Normalized()
	if n.Fidelity == FidelityAnalytic {
		return 0 // answered inline; no sweep tasks, no progress stream
	}
	if e := registry[n.Experiment]; e != nil && e.tasks != nil {
		return e.tasks(n)
	}
	return 0
}
