package exp

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/hostcc"
)

// The experiment registry: one descriptor per experiment, holding
// everything the spec path (normalize, validate, run, decode), the fleet
// splitter and the hostnetsim CLI know about it. Adding an experiment is
// one entry here plus its run function.
type experiment struct {
	shape specShape
	// run executes a normalized, validated sim-fidelity spec; result
	// returns a pointer to a zero result, for decoding a payload.
	run    func(n Spec, opt Options) (any, error)
	result func() any
	// tasks counts the Options.Progress calls run makes (nil: none); each
	// count lives beside the run function it mirrors.
	tasks func(n Spec) int
	// split lists n's per-point sub-specs along the sweep axis (nil for a
	// single point); merge appends a later point's decoded result onto the
	// first's. Both are nil for experiments that do not shard.
	split func(n Spec) []Spec
	merge func(head, part any)
	// analytic marks the experiments the §7 model answers.
	analytic bool
	// text renders a result for the CLI; csv, if set, is its -csv form.
	text func(w io.Writer, n Spec, v any)
	csv  func(w io.Writer, v any) error
	// aliases are further CLI names rendering the same spec.
	aliases []string
}

// specShape declares which Spec knobs an experiment reads, plus its
// defaults; normalization clears unread knobs so equivalent specs hash
// equal.
type specShape struct {
	preset, ddio, quadrant, cores, fracs, reserve, faults, fabric bool

	defQuadrant int
	defCores    []int
	defFaults   bool // empty Faults means the default demo schedule
}

var (
	// A figure fixes every knob beyond interval, testbed, DDIO and (for
	// fig3/fig18) a fault schedule; the app figures fix testbed and DDIO
	// too.
	figShape      = specShape{preset: true, ddio: true}
	faultFigShape = specShape{preset: true, ddio: true, faults: true}
	sweepShape    = specShape{preset: true, ddio: true, quadrant: true, cores: true, faults: true, defQuadrant: 1}
)

var registry = map[string]*experiment{
	"fig3":  withCSV(figure(faultFigShape, RunFig3, fourQuadrantTasks, RenderQuadrants), fig3CSV),
	"fig6":  figure(figShape, RunFig6, nil, renderFig6, "domains"),
	"fig11": figure(figShape, RunFig11, fourQuadrantTasks, RenderFormula, "fig12"),
	"fig18": figure(faultFigShape, RunFig18, fourQuadrantTasks, RenderRDMA, "fig20", "fig21", "fig22", "fig24"),
	"fig19": figure(figShape, runFig19, fig19Tasks, renderFig19, "fig25", "fig26"),
	"fig27": figure(figShape, RunFig27, fourQuadrantTasks, RenderFormula, "fig28"),
	"fig29": figure(figShape, runFig29, fig19Tasks, renderDCTCPFormula, "fig30"),
	"fig1":  figure(specShape{}, RunFig1, fig1Tasks, renderFig1),
	"fig2":  figure(specShape{}, RunFig2, fig2Tasks, renderFig2),
	"fig15": figure(specShape{}, RunFig15, appGridTasks, renderAppGrid),
	"fig16": figure(specShape{}, RunFig16, appGridTasks, renderAppGrid),
	"fig17": figure(specShape{}, RunFig17, appGridTasks, renderAppGrid),
	// cxl fixes its own testbed: a Cascade Lake host with a CXL.mem expander.
	"cxl": figure(specShape{}, RunCXLStudy, nil, renderCXL),

	// Parameterized sweeps and studies.
	"quadrant": {shape: sweepShape, result: newOf[[]QuadrantPoint], tasks: quadrantTasks, analytic: true,
		split: splitCores, merge: appendSlice[QuadrantPoint],
		run: func(n Spec, opt Options) (any, error) { return RunQuadrant(Quadrant(n.Quadrant), n.Cores, opt), nil },
		text: func(w io.Writer, n Spec, v any) {
			RenderQuadrants(w, map[Quadrant][]QuadrantPoint{Quadrant(n.Quadrant): v.([]QuadrantPoint)})
		}},
	"rdma": {shape: sweepShape, result: newOf[[]RDMAQuadrantPoint], tasks: quadrantTasks, analytic: true,
		split: splitCores, merge: appendSlice[RDMAQuadrantPoint],
		run: func(n Spec, opt Options) (any, error) {
			return RunRDMAQuadrant(Quadrant(n.Quadrant), n.Cores, opt), nil
		},
		text: func(w io.Writer, n Spec, v any) {
			RenderRDMA(w, map[Quadrant][]RDMAQuadrantPoint{Quadrant(n.Quadrant): v.([]RDMAQuadrantPoint)})
		}},
	"ratio": {shape: specShape{preset: true, ddio: true, cores: true, fracs: true, defCores: []int{5}},
		result: newOf[[]RatioPoint], tasks: ratioTasks,
		run:  func(n Spec, opt Options) (any, error) { return RunRatioSweep(n.Cores[0], n.WriteFracs, opt), nil },
		text: func(w io.Writer, n Spec, v any) { renderRatio(w, n.Cores[0], v.([]RatioPoint)) }},
	// hostcc is answered analytically as its unmitigated colocation point.
	"hostcc": {shape: specShape{preset: true, ddio: true, quadrant: true, cores: true, faults: true, defQuadrant: 3, defCores: []int{5}},
		result: newOf[HostCCStudy], analytic: true, text: textOf(renderHostCC),
		run: func(n Spec, opt Options) (any, error) {
			return RunHostCCStudy(Quadrant(n.Quadrant), n.Cores[0], hostcc.DefaultConfig(), opt), nil
		}},
	"mcisolation": {shape: specShape{preset: true, ddio: true, cores: true, reserve: true, defCores: []int{5}},
		result: newOf[MCIsolationStudy],
		run:    func(n Spec, opt Options) (any, error) { return RunMCIsolationStudy(n.Cores[0], n.Reserve, opt), nil },
		text:   func(w io.Writer, n Spec, v any) { renderMCIsolation(w, n.Reserve, v.(MCIsolationStudy)) }},
	"prefetch": {shape: specShape{preset: true, ddio: true, cores: true, defCores: []int{2}},
		result: newOf[PrefetchStudy], text: textOf(renderPrefetch),
		run: func(n Spec, opt Options) (any, error) { return RunPrefetchStudy(n.Cores[0], opt), nil }},
	// faultsweep pairs a healthy and a faulted RDMA quadrant sweep; an
	// empty fault list gets the default storm/throttle/starvation schedule.
	"faultsweep": {shape: specShape{preset: true, ddio: true, quadrant: true, cores: true, faults: true,
		defQuadrant: 3, defCores: []int{2, 4, 6}, defFaults: true},
		result: newOf[FaultSweep], tasks: faultSweepTasks, text: textOf(renderFaultSweep), split: splitCores,
		merge: func(head, part any) {
			h := head.(*FaultSweep)
			h.Points = append(h.Points, part.(*FaultSweep).Points...)
		},
		run: func(n Spec, opt Options) (any, error) {
			return RunFaultSweep(Quadrant(n.Quadrant), n.Cores, fault.Schedule(n.Faults), opt), nil
		}},
	// incast is the rack-scale experiment: M senders converge on a receiver
	// whose host network is the bottleneck. Cores[0] is the receiver's
	// colocated C2M core count; the fabric section shapes the rack.
	"incast": {shape: specShape{preset: true, ddio: true, cores: true, faults: true, fabric: true, defCores: []int{4}},
		result: newOf[IncastSweep], tasks: incastTasks, text: textOf(RenderIncast), split: splitDegrees,
		merge: func(head, part any) {
			h, p := head.(*IncastSweep), part.(*IncastSweep)
			h.Healthy = append(h.Healthy, p.Healthy...)
			h.Faulted = append(h.Faulted, p.Faulted...)
		},
		csv: func(w io.Writer, v any) error { return IncastCSV(v.(*IncastSweep)).WriteCSV(w) },
		run: func(n Spec, opt Options) (any, error) {
			return RunIncast(*n.Fabric, n.Cores[0], fault.Schedule(n.Faults), opt), nil
		}},
	// crossval runs both fidelity tiers on the same quadrant points. The
	// analytic side fixes its own testbed (Cascade Lake, DDIO off, no
	// faults), so only the quadrant and core sweep are honored.
	"crossval": {shape: specShape{quadrant: true, cores: true, defQuadrant: 1},
		result: newOf[CrossvalResult], tasks: quadrantTasks, text: textOf(renderCrossval), split: splitCores,
		merge: func(head, part any) {
			h := head.(*CrossvalResult)
			h.Points = append(h.Points, part.(*CrossvalResult).Points...)
		},
		run: func(n Spec, opt Options) (any, error) { return RunCrossval(Quadrant(n.Quadrant), n.Cores, opt) }},
}

// figure describes an experiment whose run reads only Options.
func figure[T any](shape specShape, run func(Options) T, tasks func(Spec) int, text func(io.Writer, T), aliases ...string) *experiment {
	return &experiment{shape: shape, result: newOf[T], tasks: tasks, text: textOf(text), aliases: aliases,
		run: func(_ Spec, opt Options) (any, error) { return run(opt), nil }}
}

func withCSV(e *experiment, csv func(io.Writer, any) error) *experiment {
	e.csv = csv
	return e
}

func newOf[T any]() any { return new(T) }

// textOf adapts a renderer that needs only the result.
func textOf[T any](render func(io.Writer, T)) func(io.Writer, Spec, any) {
	return func(w io.Writer, _ Spec, v any) { render(w, v.(T)) }
}

func appendSlice[T any](head, part any) {
	h := head.(*[]T)
	*h = append(*h, *part.(*[]T)...)
}

// splitCores shards a core-count sweep: one sub-spec per count. Every
// point is built from (quadrant, count) alone, and the shared isolated
// baseline every sub-run needs is the same deterministic simulation: a
// worker with a run cache (Options.Runs, one per hostnetd life) simulates
// it once, and one without recomputes it.
func splitCores(n Spec) []Spec {
	if len(n.Cores) < 2 {
		return nil
	}
	out := make([]Spec, len(n.Cores))
	for i, c := range n.Cores {
		out[i] = n
		out[i].Cores = []int{c}
	}
	return out
}

// splitDegrees shards an incast sweep: one rack per degree, pinned by
// FabricSpec.Degree.
func splitDegrees(n Spec) []Spec {
	degs := n.Fabric.degrees()
	if n.Fabric.Degree > 0 || len(degs) < 2 {
		return nil // already a sub-spec, or a single point
	}
	out := make([]Spec, len(degs))
	for i, d := range degs {
		fab := *n.Fabric
		fab.Incast, fab.Degree = 0, d
		out[i] = n
		out[i].Fabric = &fab
	}
	return out
}

// Experiments lists the valid Spec.Experiment names, sorted.
func Experiments() []string { return experimentsWhere(func(*experiment) bool { return true }) }

func experimentsWhere(keep func(*experiment) bool) []string {
	var names []string
	for name, e := range registry {
		if keep(e) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// A View is one name the hostnetsim CLI accepts: a registered experiment,
// an alias of one, or a rendering of an experiment's spec with some knobs
// pinned (fig7 is quadrant Q1 drawn as a root-cause table). Views add no
// content addresses: each runs an ordinary spec. table1, whose Spec is
// zero, renders static data.
type View struct {
	Name string
	Spec Spec // the experiment and the knobs the view pins
	text func(w io.Writer, n Spec, v any)
	csv  func(w io.Writer, v any) error
}

// views are the CLI names that are neither experiments nor aliases.
var views = []View{
	{Name: "table1", text: func(w io.Writer, _ Spec, _ any) { RenderTable1(w) }},
	rootCauses(7, Q1), rootCauses(8, Q3), rootCauses(13, Q2), rootCauses(14, Q4),
	{Name: "fig23", Spec: Spec{Experiment: "rdma", Quadrant: int(Q3), Cores: []int{4, 5, 6}}, text: textOf(renderFig23)},
}

// rootCauses is the Fig 7/8/13/14 view: one quadrant's probes.
func rootCauses(fig int, q Quadrant) View {
	title := fmt.Sprintf("Fig %d: quadrant %d root causes", fig, q)
	return View{Name: "fig" + strconv.Itoa(fig), Spec: Spec{Experiment: "quadrant", Quadrant: int(q)},
		text: textOf(func(w io.Writer, pts []QuadrantPoint) { RenderQuadrantProbes(w, title, pts) })}
}

// Views lists every CLI name, figures in numeric order.
func Views() []View {
	out := append([]View(nil), views...)
	for name, e := range registry {
		for _, alias := range append([]string{name}, e.aliases...) {
			out = append(out, View{Name: alias, Spec: Spec{Experiment: name}, text: e.text, csv: e.csv})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Name, out[j].Name
		pa, pb := strings.TrimRight(a, "0123456789"), strings.TrimRight(b, "0123456789")
		if pa == pb && len(a) != len(b) {
			return len(a) < len(b) // fig2 before fig11
		}
		return a < b
	})
	return out
}

// LookupView resolves a CLI name.
func LookupView(name string) (View, bool) {
	for _, v := range Views() {
		if v.Name == name {
			return v, true
		}
	}
	return View{}, false
}

// PaperSuite is what `hostnetsim all` renders: the paper's tables and
// figures in reading order.
func PaperSuite() []string {
	return []string{"table1", "fig3", "fig6", "fig7", "fig8", "fig11", "fig13", "fig14",
		"fig1", "fig2", "fig15", "fig16", "fig17", "fig18", "fig19", "fig23", "fig27", "fig29"}
}

// ReadsFaults reports whether the view's experiment honors a fault
// schedule; any other view's spec would drop one.
func (v View) ReadsFaults() bool {
	e := registry[v.Spec.Experiment]
	return e != nil && e.shape.faults
}

// Render writes a result RunSpec returned for the normalized spec n; with
// csv set it writes the CSV form where the view has one.
func (v View) Render(w io.Writer, n Spec, result any, csv bool) error {
	if csv && v.csv != nil {
		return v.csv(w, result)
	}
	v.text(w, n, result)
	return nil
}
