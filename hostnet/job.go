package hostnet

import "repro/internal/exp"

// JobSpec is the machine-readable description of one experiment job — the
// public currency of the hostnetd daemon and `hostnetsim -format json`.
// Sweeps are deterministic and bit-identical at any parallelism, so a
// JobSpec fully determines its result; hostnetd content-addresses results
// by JobSpec.Hash (SHA-256 of the canonical encoding) and serves repeated
// or concurrent identical submissions from one underlying simulation.
//
// A JobSpec names any registered experiment. Its JSON form is the one
// hostnetd accepts, so a spec's nested sections (faults, fabric) and the
// analytic tier ("fidelity": "analytic") are set by decoding that form.
type JobSpec = exp.Spec

// RunJobJSON executes a job spec and returns the canonical JSON result
// bytes — the normalized spec followed by the experiment's structured
// result, byte-identical across the CLI, the daemon, repeat runs, and any
// parallelism setting. opt supplies execution-only behavior (parallelism,
// audit, cancellation, progress).
func RunJobJSON(spec JobSpec, opt Options) ([]byte, error) { return exp.RunSpecJSON(spec, opt) }

// SplitJob splits a multi-point sweep spec into one independently
// content-addressed sub-spec per sweep point, in sweep order, or returns
// nil when the spec is not splittable (single points, fixed figures, and
// sweeps whose points depend on their index). Running the sub-specs
// anywhere and merging with MergeJobResults reproduces the single-node
// bytes exactly — the contract the fleet coordinator is built on.
func SplitJob(spec JobSpec) []JobSpec { return spec.Points() }

// MergeJobResults reassembles the per-point result bytes produced by
// running each of SplitJob's sub-specs (in order) into bytes identical to
// a single-node RunJobJSON of the parent spec. Each part is verified
// against its expected sub-spec hash first.
func MergeJobResults(spec JobSpec, parts [][]byte) ([]byte, error) {
	return exp.MergePointResults(spec, parts)
}
