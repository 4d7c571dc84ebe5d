// Command hostnetsim regenerates the tables and figures of "Understanding
// the Host Network" (SIGCOMM 2024) from the simulator.
//
// Usage:
//
//	hostnetsim [flags] <experiment> [experiment...]
//
// Names, generated from the experiment registry in internal/exp:
//
//	experiments: crossval cxl domains faultsweep fig1 fig2 fig3 fig6 fig7 fig8
//	             fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21
//	             fig22 fig23 fig24 fig25 fig26 fig27 fig28 fig29 fig30 hostcc
//	             incast mcisolation prefetch quadrant ratio rdma table1 all
//	-faults is read by: faultsweep fig3 fig7 fig8 fig13 fig14 fig18 fig20 fig21
//	                    fig22 fig23 fig24 hostcc incast quadrant rdma
//
// Every name runs one exp.Spec through exp.RunSpec and renders the result,
// so the table is the rendering of the bytes `-format json` prints. In
// table mode "all" renders the paper's tables and figures in reading
// order; in JSON mode it emits every registered experiment.
//
// Flags (accepted before or after the experiment names):
//
//	-window   measurement window (default 100us; larger = smoother numbers)
//	-warmup   warmup before measuring (default 20us)
//	-ddio     enable DDIO for the experiments that read it
//	-hosts    rack size for the incast experiment: N hosts on one ToR,
//	          N-1 senders converging on host 0 (default 4)
//	-parallel worker-pool size for multi-point sweeps (0 = one per CPU,
//	          1 = serial); results are bit-identical at any setting
//	-format   "table" (default, rendered) or "json": the canonical JSON
//	          Result envelope, one NDJSON line per experiment, byte-identical
//	          to hostnetd's result endpoint for the same spec
//	-fidelity "sim" (default, the discrete-event simulator) or "analytic":
//	          answer from the §7 predictive model instead — microseconds
//	          per experiment, supported for the point sweeps only (quadrant,
//	          rdma, hostcc), JSON output only
//	-version  print build identification (module version, VCS revision) and
//	          exit
//	-audit    run every experiment under the invariant auditor: credit
//	          pools are checked for conservation between events and latency
//	          probes cross-checked against direct timestamps; any violation
//	          aborts with the domain, counter, and simulated time
//	-faults   fault schedule for the names listed above: a JSON array of
//	          windows, inline or "@file" (see EXPERIMENTS.md "Fault
//	          scenarios"), e.g.
//	          '[{"kind":"pfc_pause_storm","start_ns":30000,"duration_ns":25000}]';
//	          any other name exits 2, since its spec has no faults to apply
//
// Profiling (see README "Performance & profiling"):
//
//	-cpuprofile file  write a CPU profile for the whole run
//	-memprofile file  write an allocation profile at exit
//	-trace file       write a runtime execution trace
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/version"
)

func main() {
	// Profile teardown happens via defers, so the exit code is carried out
	// of realMain instead of calling os.Exit mid-run.
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostnetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, usage())
		fs.PrintDefaults()
	}
	window := fs.Duration("window", 100*time.Microsecond, "measurement window (simulated)")
	warmup := fs.Duration("warmup", 20*time.Microsecond, "warmup before measuring (simulated)")
	ddio := fs.Bool("ddio", false, "enable DDIO for the experiments that read it")
	auditOn := fs.Bool("audit", false, "check credit-conservation invariants during every run")
	faultsArg := fs.String("faults", "", "fault schedule: JSON array of windows, or @file")
	csvOut := fs.Bool("csv", false, "emit fig3 and incast as CSV instead of tables")
	format := fs.String("format", "table", "output format: table (rendered) or json (canonical machine-readable)")
	fidelity := fs.String("fidelity", "", "fidelity tier: sim (default) or analytic (predictive model, -format json only)")
	showVersion := fs.Bool("version", false, "print build version and exit")
	parallel := fs.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
	hosts := fs.Int("hosts", 0, "rack size for the incast experiment (default 4)")
	partitioned := fs.Bool("partitioned", false, "run incast racks as a conservative-parallel DES (per-host engines, ToR-lookahead rounds; no fault injection)")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write allocation profile to `file` at exit")
	traceOut := fs.String("trace", "", "write runtime execution trace to `file`")
	if err := fs.Parse(reorderArgs(args)); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *showVersion {
		fmt.Fprintln(stdout, "hostnetsim", version.Get())
		return 0
	}
	if *format != "table" && *format != "json" {
		fmt.Fprintf(stderr, "unknown -format %q (valid: table, json)\n", *format)
		return 2
	}
	switch *fidelity {
	case "", exp.FidelitySim, exp.FidelityAnalytic:
	default:
		fmt.Fprintf(stderr, "unknown -fidelity %q (valid: sim, analytic)\n", *fidelity)
		return 2
	}
	if *fidelity == exp.FidelityAnalytic && *format != "json" {
		fmt.Fprintln(stderr, "-fidelity analytic emits []AnalyticPoint, which has no table rendering; use -format json")
		return 2
	}
	faults, err := parseFaults(*faultsArg)
	if err != nil {
		fmt.Fprintln(stderr, "-faults:", err)
		return 2
	}

	names := fs.Args()
	if len(names) == 0 {
		fmt.Fprintln(stderr, usage())
		return 2
	}
	if *format == "json" {
		if len(names) == 1 && names[0] == "all" {
			names = exp.Experiments()
		}
	} else {
		for _, a := range names {
			if a == "all" {
				names = exp.PaperSuite()
				break
			}
		}
	}

	// Resolve every name to its spec before running anything, so bad input
	// exits 2 without partial output.
	views := make([]exp.View, len(names))
	for i, name := range names {
		v, ok := exp.LookupView(name)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q\n%s\n", name, usage())
			return 2
		}
		if len(faults) > 0 && !v.ReadsFaults() {
			_, faultNames := nameLists()
			fmt.Fprintf(stderr, "-faults: %s does not read a fault schedule (names that do: %s)\n",
				name, strings.Join(faultNames, " "))
			return 2
		}
		s := v.Spec
		if s.Experiment == "" {
			if *format == "json" {
				fmt.Fprintf(stderr, "%s renders static data and has no JSON form\n", name)
				return 2
			}
		} else {
			s.WarmupNs, s.WindowNs = warmup.Nanoseconds(), window.Nanoseconds()
			s.DDIO, s.Faults, s.Fidelity = *ddio, faults, *fidelity
			if *hosts > 0 || *partitioned {
				s.Fabric = &exp.FabricSpec{Hosts: *hosts, Partitioned: *partitioned}
			}
			if err := s.Normalized().Validate(); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", name, err)
				return 2
			}
		}
		v.Spec = s
		views[i] = v
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
		}()
	}

	opt := exp.Defaults()
	opt.Parallelism = *parallel
	if *auditOn {
		opt.Audit = true
	}
	// One run cache per invocation: `all` simulates each shared baseline
	// once across the names it renders.
	opt.Runs = exp.NewRunCache()
	for _, v := range views {
		// JSON lines are byte-identical to hostnetd's result endpoint for
		// the same spec: both route through exp.RunSpecJSON.
		if *format == "json" {
			b, err := exp.RunSpecJSON(v.Spec, opt)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", v.Name, err)
				return 1
			}
			stdout.Write(append(b, '\n'))
			continue
		}
		n := v.Spec.Normalized()
		var result any
		if n.Experiment != "" {
			if result, err = exp.RunSpec(n, opt); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", v.Name, err)
				return 1
			}
		}
		if err := v.Render(stdout, n, result, *csvOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// nameLists returns every name the CLI accepts and the ones whose
// experiment reads a fault schedule, both in registry order.
func nameLists() (names, faultNames []string) {
	for _, v := range exp.Views() {
		names = append(names, v.Name)
		if v.ReadsFaults() {
			faultNames = append(faultNames, v.Name)
		}
	}
	return names, faultNames
}

// usage is the name list printed on bad input; the package comment embeds
// the same lines.
func usage() string {
	names, faultNames := nameLists()
	return "usage: hostnetsim [flags] <experiment>...\n" +
		wrap("experiments: ", append(names, "all")) + "\n" +
		wrap("-faults is read by: ", faultNames)
}

// wrap joins words after label into lines of at most 78 columns, indenting
// continuation lines under the first word.
func wrap(label string, words []string) string {
	var b strings.Builder
	line := label
	for i, w := range words {
		if i > 0 && len(line)+1+len(w) > 78 {
			b.WriteString(line + "\n")
			line = strings.Repeat(" ", len(label)) + w
			continue
		}
		if i > 0 {
			line += " "
		}
		line += w
	}
	b.WriteString(line)
	return b.String()
}

// parseFaults decodes the -faults argument: empty, inline JSON, or @file.
func parseFaults(arg string) (fault.Schedule, error) {
	if arg == "" {
		return nil, nil
	}
	data := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		data = b
	}
	var s fault.Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding fault schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.Normalized(), nil
}

// boolFlags are the flags that take no value argument; every other flag
// consumes the following token when written as "-flag value".
var boolFlags = map[string]bool{"ddio": true, "csv": true, "audit": true, "version": true, "partitioned": true}

// reorderArgs moves flag tokens ahead of experiment names so that
// "hostnetsim fig3 -parallel 8" works; the standard flag package stops
// parsing at the first positional argument.
func reorderArgs(args []string) []string {
	var flags, pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") || a == "-" || a == "--" {
			pos = append(pos, a)
			continue
		}
		flags = append(flags, a)
		name := strings.TrimLeft(a, "-")
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			continue // -flag=value is self-contained
		}
		if !boolFlags[name] && i+1 < len(args) {
			i++
			flags = append(flags, args[i])
		}
	}
	return append(flags, pos...)
}
