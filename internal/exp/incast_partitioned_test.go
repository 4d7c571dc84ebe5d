package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// partitionedIncastSpec is a 3-host partitioned rack at windows long enough
// for both PFC directions to fire at degree 2.
func partitionedIncastSpec() Spec {
	return Spec{
		Experiment: "incast",
		Cores:      []int{4},
		WarmupNs:   10000,
		WindowNs:   20000,
		Fabric:     &FabricSpec{Hosts: 3, Partitioned: true},
	}
}

// TestIncastPartitionedIdentity pins the partitioned rack's determinism end
// to end: a partitioned incast spec produces byte-identical RunSpecJSON on a
// repeat run and when the sweep pool runs its degrees concurrently.
func TestIncastPartitionedIdentity(t *testing.T) {
	spec := partitionedIncastSpec()
	want, err := RunSpecJSON(spec, fastOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		got, err := RunSpecJSON(spec, fastOpt(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bytes differ at parallelism %d:\n%s\nvs\n%s", par, want, got)
		}
	}
	// Both pause directions must fire, or the identity above never sees
	// the pause message kinds.
	var env struct {
		Result IncastSweep `json:"result"`
	}
	if err := json.Unmarshal(want, &env); err != nil {
		t.Fatal(err)
	}
	p := env.Result.Healthy[len(env.Result.Healthy)-1]
	if p.MaxSenderPause() == 0 {
		t.Fatalf("no sender was ever TX-paused; incast did not congest the ToR")
	}
	if p.ReceiverPauseFrac() == 0 {
		t.Fatalf("receiver never asserted RX pause; colocated load did not back-pressure")
	}
}

// TestIncastPartitionedRejectsFaults pins the spec-level guard: a
// partitioned rack has no rack-wide fault observer, so the combination must
// fail validation instead of silently dropping the schedule.
func TestIncastPartitionedRejectsFaults(t *testing.T) {
	spec := partitionedIncastSpec()
	spec.Faults = DefaultFaultSchedule(spec.WarmupNs, spec.WindowNs)
	if _, err := RunSpecJSON(spec, fastOpt(1)); err == nil {
		t.Fatalf("partitioned incast with faults validated")
	} else if !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestIncastPartitionedIsDistinctSpec pins that Partitioned participates in
// the content address: it selects a different discretization, so it must
// produce a different cache key than the shared-engine spec.
func TestIncastPartitionedIsDistinctSpec(t *testing.T) {
	part := partitionedIncastSpec()
	shared := partitionedIncastSpec()
	shared.Fabric.Partitioned = false
	hp, err := part.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hs, err := shared.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hp == hs {
		t.Fatalf("partitioned and shared specs hash equal: %s", hp)
	}
}
