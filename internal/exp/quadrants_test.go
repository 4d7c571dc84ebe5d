package exp

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// figOptions returns the full 100 us window by default; under -short (the
// race-detector CI tier) it shrinks the measurement window so the figure
// shape tests finish in minutes instead of tens of minutes. The regime
// shapes are already stable at 30 us; EXPERIMENTS.md numbers come from the
// full window.
func figOptions(t *testing.T) Options {
	t.Helper()
	opt := Defaults()
	if testing.Short() {
		opt.Warmup = 10 * sim.Microsecond
		opt.Window = 30 * sim.Microsecond
	}
	return opt
}

func logPoints(t *testing.T, pts []QuadrantPoint) {
	for _, p := range pts {
		t.Logf("%v cores=%d: C2Mdeg=%.2fx P2Mdeg=%.2fx | C2M=%.1f P2M=%.1f GB/s | memC2M=%.1f memP2M=%.1f | C2Mlat=%.0f->%.0f P2Mlat(w)=%.0f->%.0f | wpqFull=%.2f wback=%.1f admit=%.1f iioW=%.0f regime=%v",
			p.Quadrant, p.Cores, p.C2MDegradation(), p.P2MDegradation(),
			p.Co.C2MBW/1e9, p.Co.P2MBW/1e9, p.Co.MemC2M/1e9, p.Co.MemP2M/1e9,
			p.C2MIso.C2MLat, p.Co.C2MLat, p.P2MIso.P2MWriteLat, p.Co.P2MWriteLat,
			p.Co.WPQFullFrac, p.Co.WBacklog, p.Co.CHAAdmitLat, p.Co.IIOWriteOcc, p.Regime())
	}
}

// Fig 3 quadrant 1: blue regime — C2M degrades (1.2-1.7x), P2M unaffected,
// memory bandwidth unsaturated at low core counts.
func TestQuadrant1BlueRegime(t *testing.T) {
	pts := RunQuadrant(Q1, DefaultCoreSweep(), figOptions(t))
	logPoints(t, pts)
	for _, p := range pts {
		if d := p.C2MDegradation(); d < 1.1 {
			t.Errorf("Q1 cores=%d: C2M degradation %.2fx, want >= 1.1", p.Cores, d)
		}
		if d := p.P2MDegradation(); d > 1.1 {
			t.Errorf("Q1 cores=%d: P2M degraded %.2fx; blue regime must leave P2M intact", p.Cores, d)
		}
		if p.Regime() != core.Blue {
			t.Errorf("Q1 cores=%d: regime %v, want blue", p.Cores, p.Regime())
		}
	}
	// Degradation appears below saturation at 1 core.
	p0 := pts[0]
	util := (p0.Co.MemC2M + p0.Co.MemP2M) / 46.9e9
	if util > 0.75 {
		t.Errorf("Q1 1-core utilization %.0f%%: degradation must appear before saturation", util*100)
	}
}

// Fig 3 quadrant 3: red regime — with enough C2M-ReadWrite cores, P2M
// degrades too (C2M antagonizes P2M), and shares stabilize at high load.
func TestQuadrant3RedRegime(t *testing.T) {
	pts := RunQuadrant(Q3, DefaultCoreSweep(), figOptions(t))
	logPoints(t, pts)
	// Low core counts: blue-like (P2M intact).
	if d := pts[0].P2MDegradation(); d > 1.15 {
		t.Errorf("Q3 1 core: P2M degraded %.2fx too early", d)
	}
	// High core counts: P2M must degrade appreciably.
	last := pts[len(pts)-1]
	if d := last.P2MDegradation(); d < 1.3 {
		t.Errorf("Q3 %d cores: P2M degradation %.2fx, want >= 1.3 (red regime)", last.Cores, d)
	}
	if last.Regime() != core.Red {
		t.Errorf("Q3 high load regime %v, want red", last.Regime())
	}
	// WPQ persistently full at high load.
	if last.Co.WPQFullFrac < 0.5 {
		t.Errorf("Q3 %d cores: WPQ full only %.0f%% of time", last.Cores, last.Co.WPQFullFrac*100)
	}
}

// Fig 3 quadrants 2 and 4: blue regime with P2M reads.
func TestQuadrants2And4Blue(t *testing.T) {
	for _, q := range []Quadrant{Q2, Q4} {
		pts := RunQuadrant(q, []int{1, 3, 6}, figOptions(t))
		logPoints(t, pts)
		for _, p := range pts {
			if d := p.C2MDegradation(); d < 1.03 {
				t.Errorf("%v cores=%d: C2M degradation %.2fx, want >= 1.03", q, p.Cores, d)
			}
			if d := p.P2MDegradation(); d > 1.1 {
				t.Errorf("%v cores=%d: P2M degraded %.2fx; want intact", q, p.Cores, d)
			}
		}
	}
}

// TestRunFig3MatchesQuadrants pins run sharing on RunFig3: the figure —
// whose private run cache runs each unique simulation once and shares it
// across the points that need it — is byte-identical to assembling every
// quadrant independently via RunQuadrant with a nil Options.Runs, which
// runs each point from scratch.
func TestRunFig3MatchesQuadrants(t *testing.T) {
	opt := Defaults()
	opt.Warmup = 1 * sim.Microsecond
	opt.Window = 3 * sim.Microsecond
	fig := RunFig3(opt)
	for _, q := range []Quadrant{Q1, Q2, Q3, Q4} {
		want := RunQuadrant(q, DefaultCoreSweep(), opt)
		if !reflect.DeepEqual(fig[q], want) {
			t.Errorf("%v: RunFig3 points differ from RunQuadrant:\nfig3 %+v\nquad %+v", q, fig[q], want)
		}
	}
}
