package exp

import (
	"bytes"
	"testing"

	"repro/internal/fault"
)

// TestPointsShape pins which specs split and into what.
func TestPointsShape(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want int // sub-spec count; 0 = not splittable
	}{
		{"quadrant sweep", Spec{Experiment: "quadrant", Quadrant: 2, Cores: []int{1, 3, 5}}, 3},
		{"rdma sweep", Spec{Experiment: "rdma", Cores: []int{2, 4}}, 2},
		{"faultsweep", Spec{Experiment: "faultsweep", Cores: []int{2, 4, 6}}, 3},
		{"crossval sweep", Spec{Experiment: "crossval", Cores: []int{1, 2, 4}}, 3},
		{"single-point crossval", Spec{Experiment: "crossval", Cores: []int{2}}, 0},
		// Analytic answers are microseconds of arithmetic: never sharded.
		{"analytic quadrant", Spec{Experiment: "quadrant", Cores: []int{1, 3, 5}, Fidelity: FidelityAnalytic}, 0},
		{"incast default rack", Spec{Experiment: "incast", Fabric: &FabricSpec{Hosts: 4}}, 3}, // degrees 1..3
		{"incast pinned degree", Spec{Experiment: "incast", Fabric: &FabricSpec{Hosts: 4, Degree: 2}}, 0},
		{"incast flow matrix", Spec{Experiment: "incast", Fabric: &FabricSpec{Hosts: 3, Flows: []FlowSpec{{Src: 1, Dst: 0}}}}, 0},
		{"single-point quadrant", Spec{Experiment: "quadrant", Cores: []int{4}}, 0},
		// ratio's workload seeds depend on the point's index in the sweep
		// (RunRatioSweep), so per-point sub-runs would diverge: must not split.
		{"ratio", Spec{Experiment: "ratio", WriteFracs: []float64{0, 0.5, 1}}, 0},
		{"fig3", Spec{Experiment: "fig3"}, 0},
		{"hostcc", Spec{Experiment: "hostcc"}, 0},
		{"invalid", Spec{Experiment: "nope"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			subs := c.spec.Points()
			if len(subs) != c.want {
				t.Fatalf("Points() = %d sub-specs, want %d", len(subs), c.want)
			}
			for i, sub := range subs {
				if err := sub.Validate(); err != nil {
					t.Fatalf("sub-spec %d invalid: %v", i, err)
				}
				if got := sub.Points(); got != nil {
					t.Fatalf("sub-spec %d is itself splittable (%d points); sharding must terminate", i, len(got))
				}
			}
		})
	}
}

// TestPointsHashStability pins the content-addressing properties the fleet
// depends on: sub-spec canonical bytes are deterministic, every sub-spec
// hashes differently from the parent and from its siblings, and sub-specs
// shared between overlapping parent sweeps hash identically (so a fleet
// store serves one sweep's points to another).
func TestPointsHashStability(t *testing.T) {
	parent := Spec{Experiment: "quadrant", Quadrant: 3, Cores: []int{1, 2, 4}}
	subs := parent.Points()
	if len(subs) != 3 {
		t.Fatalf("Points() = %d sub-specs, want 3", len(subs))
	}
	parentHash, err := parent.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{parentHash: true}
	for i, sub := range subs {
		c1, err1 := sub.Canonical()
		c2, err2 := sub.Canonical()
		if err1 != nil || err2 != nil || !bytes.Equal(c1, c2) {
			t.Fatalf("sub-spec %d canonical not stable: %v %v", i, err1, err2)
		}
		h, err := sub.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if seen[h] {
			t.Fatalf("sub-spec %d hash collides with parent or sibling", i)
		}
		seen[h] = true
	}

	// Overlapping sweeps meet at the shared point's hash.
	other := Spec{Experiment: "quadrant", Quadrant: 3, Cores: []int{4, 6}}
	otherSubs := other.Points()
	h1, _ := subs[2].Hash()      // Cores=[4] from {1,2,4}
	h2, _ := otherSubs[0].Hash() // Cores=[4] from {4,6}
	if h1 != h2 {
		t.Fatalf("shared point hashes differ across parents: %s vs %s", h1[:12], h2[:12])
	}

	// Splitting a spec must not depend on whether it was pre-normalized.
	rawSubs := Spec{Experiment: "quadrant", Quadrant: 3, Cores: []int{1, 2, 4}}.Points()
	for i := range subs {
		a, _ := subs[i].Canonical()
		b, _ := rawSubs[i].Canonical()
		if !bytes.Equal(a, b) {
			t.Fatalf("sub-spec %d differs between raw and normalized parent", i)
		}
	}
}

// TestPointsMergeByteIdentical is the sharding soundness test: running each
// sub-spec independently and merging reproduces the single-node RunSpecJSON
// bytes exactly, for every splittable experiment.
func TestPointsMergeByteIdentical(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"quadrant", Spec{Experiment: "quadrant", Quadrant: 2, Cores: []int{1, 2}, WarmupNs: 1000, WindowNs: 2000}},
		{"rdma", Spec{Experiment: "rdma", Quadrant: 1, Cores: []int{1, 2}, WarmupNs: 1000, WindowNs: 2000}},
		{"faultsweep", Spec{Experiment: "faultsweep", Quadrant: 3, Cores: []int{1, 2}, WarmupNs: 1000, WindowNs: 3000}},
		{"incast", Spec{Experiment: "incast", Cores: []int{2}, Fabric: &FabricSpec{Hosts: 3}, WarmupNs: 1000, WindowNs: 2000}},
		// The faulted twins and the partitioned rack merge through the same
		// per-degree path.
		{"incast-faulted", Spec{Experiment: "incast", Cores: []int{2}, Fabric: &FabricSpec{Hosts: 3}, WarmupNs: 1000, WindowNs: 2000,
			Faults: []fault.Window{{Kind: fault.PauseStorm, StartNs: 1500, DurationNs: 500}}}},
		{"incast-partitioned", Spec{Experiment: "incast", Cores: []int{2}, Fabric: &FabricSpec{Hosts: 3, Partitioned: true}, WarmupNs: 1000, WindowNs: 2000}},
		{"crossval", Spec{Experiment: "crossval", Quadrant: 3, Cores: []int{1, 2}, WarmupNs: 1000, WindowNs: 2000}},
	} {
		spec := c.spec
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opt := Defaults()
			single, err := RunSpecJSON(spec, opt)
			if err != nil {
				t.Fatalf("single-node run: %v", err)
			}
			subs := spec.Points()
			if subs == nil {
				t.Fatal("spec did not split")
			}
			parts := make([][]byte, len(subs))
			for i, sub := range subs {
				parts[i], err = RunSpecJSON(sub, opt)
				if err != nil {
					t.Fatalf("sub-spec %d run: %v", i, err)
				}
			}
			merged, err := MergePointResults(spec, parts)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			if !bytes.Equal(merged, single) {
				t.Fatalf("merged result differs from single-node run:\nsingle: %.300s\nmerged: %.300s", single, merged)
			}
		})
	}
}

// TestMergeRejectsMismatchedParts pins that merge verifies each part
// against its expected sub-spec instead of trusting worker responses.
func TestMergeRejectsMismatchedParts(t *testing.T) {
	spec := Spec{Experiment: "quadrant", Quadrant: 1, Cores: []int{1, 2}, WarmupNs: 1000, WindowNs: 2000}
	subs := spec.Points()
	opt := Defaults()
	parts := make([][]byte, len(subs))
	var err error
	for i, sub := range subs {
		if parts[i], err = RunSpecJSON(sub, opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergePointResults(spec, parts[:1]); err == nil {
		t.Fatal("merge accepted a short part list")
	}
	swapped := [][]byte{parts[1], parts[0]}
	if _, err := MergePointResults(spec, swapped); err == nil {
		t.Fatal("merge accepted out-of-order parts (wrong sub-spec per slot)")
	}
	if _, err := MergePointResults(spec, [][]byte{parts[0], []byte("{not json")}); err == nil {
		t.Fatal("merge accepted a corrupt part")
	}
	if _, err := MergePointResults(Spec{Experiment: "ratio"}, parts); err == nil {
		t.Fatal("merge accepted an unsplittable spec")
	}
}

// TestIncastDegreeSubSpec pins the FabricSpec.Degree sub-spec semantics:
// degree pins a single point, normalization clears Incast, and a pinned
// degree clamps to the host count.
func TestIncastDegreeSubSpec(t *testing.T) {
	fs := FabricSpec{Hosts: 4, Incast: 3, Degree: 2}.Normalized()
	if fs.Incast != 0 || fs.Degree != 2 {
		t.Fatalf("normalized = %+v; want Incast cleared, Degree kept", fs)
	}
	if d := fs.degrees(); len(d) != 1 || d[0] != 2 {
		t.Fatalf("degrees() = %v, want [2]", d)
	}
	if fs := (FabricSpec{Hosts: 4, Degree: 9}).Normalized(); fs.Degree != 3 {
		t.Fatalf("degree not clamped to hosts-1: %+v", fs)
	}
	bad := FabricSpec{Hosts: 3, Degree: 1, Flows: []FlowSpec{{Src: 1, Dst: 0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("degree+flows accepted")
	}
	if err := (FabricSpec{Hosts: 3, Degree: -1}).Validate(); err == nil {
		t.Fatal("negative degree accepted")
	}
}
