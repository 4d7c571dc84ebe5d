package exp

import (
	"encoding/json"
	"fmt"
)

// This file is the sharding contract between exp.Spec and the fleet
// coordinator (internal/fleet): Points splits a multi-point sweep spec into
// independently canonical, independently content-addressed per-point
// sub-specs, and MergePointResults reassembles the sub-results into bytes
// identical to a single-node RunSpecJSON of the parent spec.
//
// Splitting is sound exactly when every sweep point is an independent
// simulation whose construction does not depend on its position in the
// sweep. That holds for quadrant, rdma, faultsweep and crossval (points are
// built from (quadrant, core count) alone — the shared isolated baseline
// each sub-run needs is the very same deterministic simulation, so a
// recomputed or run-cache-shared Measure is bit-equal to the sweep's) and
// for incast (each degree is its own rack; FabricSpec.Degree pins a single
// one); their registry entries carry the split and merge funcs. It does NOT
// hold for ratio: its workload seeds mix in the point's index within the
// write-fraction sweep (see RunRatioSweep), so a one-point sub-run would
// seed differently and diverge. Fixed figures (fig1..fig29) and the
// single-point studies are likewise not splittable. For all of those,
// Points returns nil and a coordinator dispatches the whole spec to one
// worker.
//
// A useful corollary of per-point content addressing: overlapping sweeps
// share sub-spec hashes. `quadrant cores=[1..6]` and `quadrant cores=[4]`
// meet at the same Cores=[4] sub-spec, so a fleet's persistent store serves
// one sweep's points to another sweep for free.

// Points splits the spec into one sub-spec per sweep point, in sweep
// order. Each sub-spec is normalized, valid, and hashes to its own content
// address. It returns nil when the spec is not splittable — unknown or
// invalid specs, single-point sweeps (nothing to shard), and experiments
// whose structure is not per-point independent (see the package comment
// above; notably ratio, whose seeds depend on the sweep index).
func (s Spec) Points() []Spec {
	n := s.Normalized()
	if n.Validate() != nil {
		return nil
	}
	if n.Fidelity == FidelityAnalytic {
		// Analytic answers are microseconds of arithmetic: sharding one
		// across a fleet costs more than answering it.
		return nil
	}
	e := registry[n.Experiment]
	if e.split == nil {
		return nil
	}
	subs := e.split(n)
	for i := range subs {
		subs[i] = subs[i].Normalized()
	}
	return subs
}

// resultEnvelope is the decoded form of one RunSpecJSON output: the
// normalized spec and the raw payload, kept raw so merge can decode it into
// the experiment's concrete type.
type resultEnvelope struct {
	Spec   Spec            `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// MergePointResults reassembles the per-point Result envelopes produced by
// running each of s.Points() (in order) into the single envelope a
// single-node RunSpecJSON(s) run produces — byte-identical, which is what
// lets a coordinator-sharded sweep share a content-addressed store with
// single-node runs (pinned by TestPointsMergeByteIdentical and the fleet
// e2e test).
//
// Each part is verified against its expected sub-spec before merging, so a
// worker answering with the wrong point (or a stale result) is an error,
// not silent corruption.
func MergePointResults(s Spec, parts [][]byte) ([]byte, error) {
	n := s.Normalized()
	subs := n.Points()
	if subs == nil {
		return nil, fmt.Errorf("merge: spec %q is not splittable", n.Experiment)
	}
	if len(parts) != len(subs) {
		return nil, fmt.Errorf("merge: %d parts for %d points", len(parts), len(subs))
	}
	payloads := make([]json.RawMessage, len(parts))
	for i, part := range parts {
		var env resultEnvelope
		if err := json.Unmarshal(part, &env); err != nil {
			return nil, fmt.Errorf("merge: decoding part %d: %w", i, err)
		}
		wantHash, err := subs[i].Hash()
		if err != nil {
			return nil, fmt.Errorf("merge: hashing sub-spec %d: %w", i, err)
		}
		gotHash, err := env.Spec.Hash()
		if err != nil || gotHash != wantHash {
			return nil, fmt.Errorf("merge: part %d carries spec %q point %d, want sub-spec %s",
				i, env.Spec.Experiment, i, wantHash[:12])
		}
		payloads[i] = env.Result
	}

	// Part 0 is the head: it carries every field common to the sweep, and
	// each later part contributes its points.
	e := registry[n.Experiment]
	head := e.result()
	for i, raw := range payloads {
		part := head
		if i > 0 {
			part = e.result()
		}
		if err := json.Unmarshal(raw, part); err != nil {
			return nil, fmt.Errorf("merge: decoding point %d payload: %w", i, err)
		}
		if i > 0 {
			e.merge(head, part)
		}
	}
	b, err := json.Marshal(Result{Spec: n, Result: head})
	if err != nil {
		return nil, fmt.Errorf("merge: encoding %s result: %w", n.Experiment, err)
	}
	return b, nil
}
