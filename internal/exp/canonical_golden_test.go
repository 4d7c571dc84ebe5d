package exp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
)

// TestCanonicalSpecsGolden pins the canonical bytes and content address of
// every registered experiment for two specs: the default spec, and one that
// sets every knob (non-partitioned fabric, so faults stay valid for
// incast). Normalization decides which knobs each experiment reads, so a
// shape change shows up here as a moved address, without running anything.
//
//	go test ./internal/exp -run CanonicalSpecsGolden -update
func TestCanonicalSpecsGolden(t *testing.T) {
	knobs := Spec{
		WarmupNs: 7000, WindowNs: 13000, Preset: "icelake", DDIO: true, Quadrant: 2,
		Cores: []int{3, 1}, WriteFracs: []float64{0.5, 0.25}, Reserve: 8,
		Faults: []fault.Window{
			{Kind: fault.DRAMThrottle, StartNs: 9000, DurationNs: 2000, Channel: 1},
			{Kind: fault.PauseStorm, StartNs: 8000, DurationNs: 3000},
		},
		Fabric:   &FabricSpec{Hosts: 6, Incast: 2, FaultHost: 1},
		Fidelity: FidelitySim,
	}
	var buf bytes.Buffer
	for _, name := range Experiments() {
		for _, c := range []struct {
			label string
			spec  Spec
		}{{"default", Spec{}}, {"knobs", knobs}} {
			c.spec.Experiment = name
			canon, err := c.spec.Canonical()
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.label, err)
			}
			hash, err := c.spec.Hash()
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.label, err)
			}
			fmt.Fprintf(&buf, "%s %s %s %s\n", name, c.label, hash, canon)
		}
	}
	checkGolden(t, "canonical_specs.golden", buf.Bytes())
}
