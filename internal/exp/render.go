package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a simple aligned text table, the output format of every
// experiment's "regenerate the figure" path.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// gb formats bytes/s as GB/s.
func gb(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// x formats a degradation factor.
func x(v float64) string { return fmt.Sprintf("%.2fx", v) }

// RenderQuadrants renders Fig 3-style tables, one per quadrant.
func RenderQuadrants(w io.Writer, res map[Quadrant][]QuadrantPoint) {
	for _, q := range []Quadrant{Q1, Q2, Q3, Q4} {
		pts, ok := res[q]
		if !ok {
			continue
		}
		t := Table{
			Title: fmt.Sprintf("Fig 3 %s", q),
			Header: []string{"cores", "C2M degr", "P2M degr", "C2M GB/s", "P2M GB/s",
				"memC2M", "memP2M", "regime"},
		}
		for _, p := range pts {
			t.Add(p.Cores, x(p.C2MDegradation()), x(p.P2MDegradation()),
				gb(p.Co.C2MBW), gb(p.Co.P2MBW), gb(p.Co.MemC2M), gb(p.Co.MemP2M),
				p.Regime().String())
		}
		t.Render(w)
	}
}

// RenderQuadrantProbes renders the Fig 7/8/13/14-style root-cause table for
// one quadrant sweep.
func RenderQuadrantProbes(w io.Writer, fig string, pts []QuadrantPoint) {
	t := Table{
		Title: fig,
		Header: []string{"cores", "C2Mlat iso", "C2Mlat co", "RPQ co", "rowmiss iso", "rowmiss co",
			"WPQfull", "wback", "P2Mlat co", "IIOocc", "admit ns", "dev>=1.5x"},
	}
	for _, p := range pts {
		p2mLat := p.Co.P2MWriteLat
		if !p.Quadrant.P2MWrites() {
			p2mLat = p.Co.P2MReadLat
		}
		t.Add(p.Cores,
			fmt.Sprintf("%.0f", p.C2MIso.C2MLat), fmt.Sprintf("%.0f", p.Co.C2MLat),
			fmt.Sprintf("%.1f", p.Co.RPQOcc),
			fmt.Sprintf("%.3f", p.C2MIso.RowMissC2MRead), fmt.Sprintf("%.3f", p.Co.RowMissC2MRead),
			fmt.Sprintf("%.2f", p.Co.WPQFullFrac), fmt.Sprintf("%.1f", p.Co.WBacklog),
			fmt.Sprintf("%.0f", p2mLat), fmt.Sprintf("%.0f", p.Co.IIOWriteOcc+p.Co.IIOReadOcc),
			fmt.Sprintf("%.1f", p.Co.CHAAdmitLat), fmt.Sprintf("%.2f", p.Co.BankDevFracGE15))
	}
	t.Render(w)
}

// RenderDomainEvidence renders the Fig 6 / §4.2 table.
func RenderDomainEvidence(w io.Writer, ev DomainEvidence) {
	t := Table{
		Title: "Fig 6: domain evidence (latencies in ns)",
		Header: []string{"cores", "LFB(read)", "CHA->DRAM", "LFB(rw)", "CHA->MC wr",
			"LFB wr", "IIO(probe)", "CHA->MC wr(P2M)"},
	}
	for _, p := range ev.Points {
		t.Add(p.Cores,
			fmt.Sprintf("%.0f", p.ReadLFBLat), fmt.Sprintf("%.0f", p.ReadCHADram),
			fmt.Sprintf("%.0f", p.RWLFBLat), fmt.Sprintf("%.0f", p.RWCHAMCWr),
			fmt.Sprintf("%.0f", p.RWWriteLat),
			fmt.Sprintf("%.0f", p.ProbeIIOLat), fmt.Sprintf("%.0f", p.ProbeCHAMCWr))
	}
	t.Render(w)
	fmt.Fprintf(w, "domain characterization (measured): LFB credits=%d, IIO write credits~%d, "+
		"IIO read in-flight lower bound=%d\n", ev.LFBCredits, ev.IIOWriteCredits, ev.IIOReadCredits)
	fmt.Fprintf(w, "unloaded latencies: C2M-Read=%.0fns C2M-Write=%.0fns P2M-Write=%.0fns\n\n",
		ev.UnloadedC2MRead, ev.UnloadedC2MWrite, ev.UnloadedP2MWrite)
}

// RenderFormula renders the Fig 11 error table and Fig 12 breakdowns.
func RenderFormula(w io.Writer, res map[Quadrant][]FormulaPoint) {
	t := Table{
		Title:  "Fig 11: analytical formula error (%)",
		Header: []string{"quadrant", "cores", "C2M err", "C2M err(+CHA)", "P2M err"},
	}
	for _, q := range []Quadrant{Q1, Q2, Q3, Q4} {
		for _, f := range res[q] {
			t.Add(fmt.Sprintf("Q%d", int(f.Quadrant)), f.Cores,
				fmt.Sprintf("%+.1f", f.C2MErrorPct), fmt.Sprintf("%+.1f", f.C2MErrorCHAPct),
				fmt.Sprintf("%+.1f", f.P2MErrorPct))
		}
	}
	t.Render(w)
	b := Table{
		Title:  "Fig 12: C2M queueing-delay breakdown (ns)",
		Header: []string{"quadrant", "cores", "switching", "writeHoL", "readHoL", "topOfQueue"},
	}
	for _, q := range []Quadrant{Q1, Q2, Q3, Q4} {
		for _, f := range res[q] {
			b.Add(fmt.Sprintf("Q%d", int(f.Quadrant)), f.Cores,
				fmt.Sprintf("%.1f", f.C2MBreakdown.Switching), fmt.Sprintf("%.1f", f.C2MBreakdown.WriteHoL),
				fmt.Sprintf("%.1f", f.C2MBreakdown.ReadHoL), fmt.Sprintf("%.1f", f.C2MBreakdown.TopOfQueue))
		}
	}
	b.Render(w)
}

// RenderApps renders Fig 1/2/15/16/17-style app colocation tables. Series
// print in sorted name order so output is reproducible byte-for-byte
// (map iteration order would reshuffle rows run to run).
func RenderApps(w io.Writer, title string, series map[string][]AppPoint) {
	t := Table{
		Title:  title,
		Header: []string{"app", "ddio", "cores", "app degr", "P2M degr", "memC2M", "memP2M"},
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, p := range series[name] {
			t.Add(name, p.DDIO, p.Cores, x(p.AppDegradation()), x(p.P2MDegradation()),
				gb(p.Co.MemC2M), gb(p.Co.MemP2M))
		}
	}
	t.Render(w)
}

// RenderRDMA renders Fig 18-style tables.
func RenderRDMA(w io.Writer, res map[Quadrant][]RDMAQuadrantPoint) {
	for _, q := range []Quadrant{Q1, Q2, Q3, Q4} {
		pts, ok := res[q]
		if !ok {
			continue
		}
		t := Table{
			Title:  fmt.Sprintf("Fig 18 RDMA %s", q),
			Header: []string{"cores", "C2M degr", "P2M degr", "NIC GB/s", "PFC pause", "IIOocc"},
		}
		for _, p := range pts {
			t.Add(p.Cores, x(p.C2MDegradation()), x(p.P2MDegradation()),
				gb(p.Co.P2MBW), fmt.Sprintf("%.2f", p.PauseFrac),
				fmt.Sprintf("%.0f", p.Co.IIOWriteOcc+p.Co.IIOReadOcc))
		}
		t.Render(w)
	}
}

// RenderDCTCP renders Fig 19-style tables.
func RenderDCTCP(w io.Writer, read, rw []DCTCPPoint) {
	for _, set := range []struct {
		name string
		pts  []DCTCPPoint
	}{{"C2MRead + TCP Rx", read}, {"C2MReadWrite + TCP Rx", rw}} {
		t := Table{
			Title: fmt.Sprintf("Fig 19: %s", set.name),
			Header: []string{"cores", "mem degr", "net degr", "net GB/s", "P2M GB/s",
				"loss", "WPQfull"},
		}
		for _, p := range set.pts {
			t.Add(p.C2MCores, x(p.MemAppDegradation()), x(p.NetAppDegradation()),
				gb(p.NetCo), gb(p.P2MCo), fmt.Sprintf("%.4f", p.LossRate),
				fmt.Sprintf("%.2f", p.Co.WPQFullFrac))
		}
		t.Render(w)
	}
}

// RenderTable1 renders the hardware configuration table.
func RenderTable1(w io.Writer) {
	t := Table{
		Title:  "Table 1: simulated server configurations",
		Header: []string{"", "IceLake", "CascadeLake"},
	}
	t.Add("Cores", 32, 8)
	t.Add("DRAM", "4x3200MHz DDR4", "2x2933MHz DDR4")
	t.Add("DRAM BW", "102.4 GB/s", "46.9 GB/s")
	t.Add("PCIe BW (theoretical)", "32 GB/s", "16 GB/s")
	t.Add("PCIe BW (achievable)", "28 GB/s", "14 GB/s")
	t.Add("LFB credits/core", 12, 12)
	t.Add("IIO write credits", 184, 92)
	t.Add("IIO read credits", 328, 164)
	t.Render(w)
}

// fig3CSV writes one CSV table per quadrant.
func fig3CSV(w io.Writer, v any) error {
	res := v.(map[Quadrant][]QuadrantPoint)
	for _, q := range quadrants {
		if err := QuadrantCSV(res[q]).WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// renderFig6 renders the Fig 6 evidence, then the §4.2 characterization.
func renderFig6(w io.Writer, ev DomainEvidence) {
	RenderDomainEvidence(w, ev)
	for _, d := range Domains() {
		fmt.Fprintln(w, d)
	}
	fmt.Fprintln(w)
}

func renderFig1(w io.Writer, r Fig1Result) {
	RenderApps(w, "Fig 1: Redis/GAPBS + FIO on Ice Lake (DDIO on)",
		map[string][]AppPoint{"Redis": r.Redis, "GAPBS-PR": r.GAPBS})
}

func renderFig2(w io.Writer, r Fig2Result) {
	RenderApps(w, "Fig 2: DDIO on/off on Cascade Lake", ddioSeries(r.RedisOn, r.RedisOff, r.GAPBSOn, r.GAPBSOff))
}

func renderAppGrid(w io.Writer, g AppGridResult) {
	RenderApps(w, "Appendix B "+g.Fig, ddioSeries(g.RedisOn, g.RedisOff, g.GAPBSOn, g.GAPBSOff))
}

func ddioSeries(redisOn, redisOff, gapbsOn, gapbsOff []AppPoint) map[string][]AppPoint {
	return map[string][]AppPoint{
		"Redis(on)": redisOn, "Redis(off)": redisOff,
		"GAPBS(on)": gapbsOn, "GAPBS(off)": gapbsOff,
	}
}

func renderFig19(w io.Writer, r Fig19Result) { RenderDCTCP(w, r.Read, r.ReadWrite) }

// renderFig23 prints the microsecond-scale IIO occupancy of each point.
func renderFig23(w io.Writer, pts []RDMAQuadrantPoint) {
	for _, p := range pts {
		fmt.Fprintf(w, "Fig 23: RDMA Q%d cores=%d pause=%.2f  us-scale IIO occupancy: %v\n",
			p.Quadrant, p.Cores, p.PauseFrac, p.IIOOccSamples[:min(len(p.IIOOccSamples), 40)])
	}
	fmt.Fprintln(w)
}

func renderDCTCPFormula(w io.Writer, r Fig29Result) {
	t := Table{
		Title:  "Fig 29: formula error in the TCP case study (%)",
		Header: []string{"case", "cores", "mem err", "net C2M err", "net P2M err"},
	}
	for _, set := range []struct {
		name string
		pts  []DCTCPFormulaPoint
	}{{"C2MRead", r.Read}, {"C2MReadWrite", r.ReadWrite}} {
		for _, f := range set.pts {
			t.Add(set.name, f.C2MCores, fmt.Sprintf("%+.1f", f.MemErrPct),
				fmt.Sprintf("%+.1f", f.NetC2MErrPct), fmt.Sprintf("%+.1f", f.NetP2MErrPct))
		}
	}
	t.Render(w)
}

func renderRatio(w io.Writer, cores int, pts []RatioPoint) {
	t := Table{
		Title:  fmt.Sprintf("write-ratio sweep: the continuous blue->red transition (%d C2M cores + P2M-Write)", cores),
		Header: []string{"writeFrac", "C2M degr", "P2M degr", "WPQ full", "backlog"},
	}
	for _, p := range pts {
		t.Add(fmt.Sprintf("%.2f", p.WriteFrac), x(p.C2MDegradation()), x(p.P2MDegradation()),
			fmt.Sprintf("%.2f", p.WPQFullFrac), fmt.Sprintf("%.1f", p.WBacklog))
	}
	t.Render(w)
}

func renderPrefetch(w io.Writer, s PrefetchStudy) {
	fmt.Fprintf(w, "prefetch study (%d C2M-Read cores + P2M-Write):\n", s.Cores)
	fmt.Fprintf(w, "  isolated:  %.1f -> %.1f GB/s with prefetching\n", s.IsoOff/1e9, s.IsoOn/1e9)
	fmt.Fprintf(w, "  colocated: %.1f -> %.1f GB/s with prefetching\n", s.CoOff/1e9, s.CoOn/1e9)
	fmt.Fprintf(w, "  degradation ratio: %.2fx off vs %.2fx on (roughly unchanged)\n\n",
		s.DegradationOff(), s.DegradationOn())
}

func renderHostCC(w io.Writer, s HostCCStudy) {
	fmt.Fprintf(w, "hostCC-style mitigation (red regime, Q%d with %d cores):\n", s.Quadrant, s.Cores)
	fmt.Fprintf(w, "  P2M degradation: %.2fx -> %.2fx\n", s.P2MDegrOff(), s.P2MDegrOn())
	fmt.Fprintf(w, "  C2M degradation: %.2fx -> %.2fx\n", s.C2MDegrOff(), s.C2MDegrOn())
	fmt.Fprintf(w, "  congested %.0f%% of intervals, avg throttle %.0f ns\n\n",
		s.CongestedFrac*100, s.AvgGapNanos)
}

func renderMCIsolation(w io.Writer, reserve int, s MCIsolationStudy) {
	fmt.Fprintf(w, "MC isolation via WPQ reservation (red regime, Q3 with %d cores, reserve=%d):\n", s.Cores, reserve)
	fmt.Fprintf(w, "  P2M degradation: %.2fx -> %.2fx\n", s.P2MDegrOff(), s.P2MDegrOn())
	fmt.Fprintf(w, "  C2M degradation: %.2fx -> %.2fx\n\n", s.C2MDegrOff(), s.C2MDegrOn())
}

func renderCXL(w io.Writer, s CXLStudy) {
	fmt.Fprintf(w, "CXL.mem expander (latency-for-isolation trade):\n")
	fmt.Fprintf(w, "  CXL-homed reads: %.0f ns, %.2f GB/s (DRAM-homed: ~71 ns, ~10.8 GB/s)\n",
		s.IsoReadLatNs, s.IsoC2MBW/1e9)
	fmt.Fprintf(w, "  colocated with host-DRAM P2M writes: %.0f ns (untouched), P2M %.2f GB/s (untouched)\n\n",
		s.CoReadLatNs, s.CoP2MBW/1e9)
}

func renderFaultSweep(w io.Writer, s *FaultSweep) {
	fmt.Fprintf(w, "fault sweep (RDMA quadrant %d under %d fault windows):\n", s.Quadrant, len(s.Schedule))
	for _, f := range s.Schedule {
		fmt.Fprintf(w, "  %-18s start=%dns dur=%dns mag=%.2g ch=%d bank=%d\n",
			f.Kind, f.StartNs, f.DurationNs, f.Magnitude, f.Channel, f.Bank)
	}
	t := Table{
		Title: "healthy vs faulted degradation",
		Header: []string{"cores", "C2M degr", "C2M faulted", "P2M degr", "P2M faulted",
			"pause", "pause faulted"},
	}
	for _, p := range s.Points {
		t.Add(p.Cores,
			x(p.Healthy.C2MDegradation()), x(p.Faulted.C2MDegradation()),
			x(p.Healthy.P2MDegradation()), x(p.Faulted.P2MDegradation()),
			fmt.Sprintf("%.2f", p.Healthy.PauseFrac), fmt.Sprintf("%.2f", p.Faulted.PauseFrac))
	}
	t.Render(w)
}

func renderCrossval(w io.Writer, cv *CrossvalResult) {
	t := Table{
		Title: fmt.Sprintf("crossval: analytic vs sim, quadrant %d (envelope ±%.0f%%)",
			cv.Quadrant, float64(CrossvalEnvelopePct)),
		Header: []string{"cores", "sim C2M", "pred C2M", "BW err", "sim L", "pred L", "L err"},
	}
	for _, p := range cv.Points {
		t.Add(p.Cores,
			fmt.Sprintf("%.1f GB/s", p.SimC2MBytesPerSec/1e9),
			fmt.Sprintf("%.1f GB/s", p.PredC2MBytesPerSec/1e9),
			fmt.Sprintf("%+.1f%%", p.BWErrPct),
			fmt.Sprintf("%.0f ns", p.SimC2MReadLatencyNs),
			fmt.Sprintf("%.0f ns", p.PredC2MReadLatencyNs),
			fmt.Sprintf("%+.1f%%", p.LatErrPct))
	}
	t.Render(w)
}
