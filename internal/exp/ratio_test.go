package exp

import (
	"testing"

	"repro/internal/host"
)

// The continuous quadrant transition: at 5 cores, raising the C2M store
// fraction moves the colocation from the blue regime (P2M intact) into the
// red regime (WPQ pinned, P2M degraded).
func TestRatioSweepRegimeTransition(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	pts := RunRatioSweep(5, []float64{0, 0.25, 0.5, 0.75, 1.0}, Defaults())
	for _, p := range pts {
		t.Logf("frac=%.2f: C2M %.2fx P2M %.2fx wpqFull=%.2f wback=%.1f",
			p.WriteFrac, p.C2MDegradation(), p.P2MDegradation(), p.WPQFullFrac, p.WBacklog)
	}
	first, last := pts[0], pts[len(pts)-1]
	if d := first.P2MDegradation(); d > 1.1 {
		t.Errorf("read-only C2M should leave P2M intact, got %.2fx", d)
	}
	if d := last.P2MDegradation(); d < 1.3 {
		t.Errorf("store-heavy C2M should push the red regime, got %.2fx", d)
	}
	// P2M degradation is (weakly) monotone in the write fraction.
	for i := 1; i < len(pts); i++ {
		if pts[i].P2MDegradation() < pts[i-1].P2MDegradation()-0.08 {
			t.Errorf("P2M degradation regressed at frac=%.2f: %.2fx after %.2fx",
				pts[i].WriteFrac, pts[i].P2MDegradation(), pts[i-1].P2MDegradation())
		}
	}
	// The WPQ pinning tracks the transition.
	if first.WPQFullFrac > 0.3 || last.WPQFullFrac < 0.8 {
		t.Errorf("WPQ fill did not track the transition: %.2f -> %.2f",
			first.WPQFullFrac, last.WPQFullFrac)
	}
}

// Cross-generation check (§2.1's "observations apply across different
// processor generations and resource ratios"): the blue and red regimes
// reproduce on the Ice Lake preset too.
func TestRegimesOnIceLake(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	opt := Defaults()
	opt.Preset = host.IceLake
	// Blue: C2M-Read + P2M-Write with 8 cores.
	blue := RunQuadrant(Q1, []int{8}, opt)[0]
	t.Logf("IceLake Q1/8: C2M %.2fx P2M %.2fx", blue.C2MDegradation(), blue.P2MDegradation())
	if d := blue.C2MDegradation(); d < 1.05 {
		t.Errorf("IceLake blue regime missing: %.2fx", d)
	}
	if d := blue.P2MDegradation(); d > 1.1 {
		t.Errorf("IceLake Q1 P2M degraded %.2fx", d)
	}
	// Red: C2M-ReadWrite + P2M-Write with enough cores to exceed the drain.
	red := RunQuadrant(Q3, []int{24}, opt)[0]
	t.Logf("IceLake Q3/24: C2M %.2fx P2M %.2fx wpqFull=%.2f",
		red.C2MDegradation(), red.P2MDegradation(), red.Co.WPQFullFrac)
	if d := red.P2MDegradation(); d < 1.15 {
		t.Errorf("IceLake red regime missing: P2M %.2fx", d)
	}
}
