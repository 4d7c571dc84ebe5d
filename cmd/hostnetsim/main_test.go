package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden and the package comment's name list")

// short is the interval every CLI test runs at: a few events per run, so
// the whole name list renders in seconds.
var short = []string{"-warmup", "1us", "-window", "2us"}

// stormFaults and throttleFaults are schedules inside the short window.
const (
	stormFaults    = `[{"kind":"pfc_pause_storm","start_ns":1500,"duration_ns":500}]`
	throttleFaults = `[{"kind":"dram_throttle","start_ns":1500,"duration_ns":500}]`
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = realMain(append(append([]string(nil), short...), args...), &out, &errOut)
	return out.String(), errOut.String(), code
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// Every name renders exactly what it rendered before the experiment
// registry existed: the goldens are the earlier CLI's output.
func TestGoldenEveryName(t *testing.T) {
	names, _ := nameLists()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			out, errOut, code := runCLI(t, name)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			checkGolden(t, name+".golden", out)
		})
	}
}

func TestGoldenVariants(t *testing.T) {
	for golden, args := range map[string][]string{
		"fig3_csv.golden":     {"-csv", "fig3"},
		"incast_csv.golden":   {"-csv", "incast"},
		"fig3_faults.golden":  {"-faults", throttleFaults, "fig3"},
		"fig18_faults.golden": {"-faults", stormFaults, "fig18"},
		// The partitioned rack at windows long enough for both PFC
		// directions to fire at every degree: the switch pauses senders'
		// TX and the loaded receiver pauses the switch egress, so every
		// cross-partition message kind shapes these bytes.
		"incast_partitioned.golden": {"-format", "json", "-hosts", "4", "-partitioned",
			"-warmup", "10us", "-window", "30us", "incast"},
	} {
		out, errOut, code := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut)
		}
		checkGolden(t, golden, out)
	}
}

// "all" renders the paper suite in reading order.
func TestAllIsPaperSuite(t *testing.T) {
	out, errOut, code := runCLI(t, "all")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var want strings.Builder
	for _, name := range exp.PaperSuite() {
		b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
	}
	if out != want.String() {
		t.Fatalf("all differs from the concatenated suite goldens")
	}
}

// The table is a rendering of the result -format json prints for the same
// flags: both run one spec.
func TestTextRendersJSONResult(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", stormFaults, "fig18"},
		{"-faults", throttleFaults, "fig7"},
		{"-ddio", "fig23"},
	} {
		name := args[len(args)-1]
		text, errOut, code := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut)
		}
		js, errOut, code := runCLI(t, append([]string{"-format", "json"}, args...)...)
		if code != 0 {
			t.Fatalf("%v json: exit %d: %s", args, code, errOut)
		}
		var env struct {
			Spec   exp.Spec        `json:"spec"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(js), &env); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(args[0], "faults") && len(env.Spec.Faults) == 0 {
			t.Fatalf("%v: JSON spec dropped the faults: %+v", args, env.Spec)
		}
		result := exp.NewResultValue(env.Spec.Experiment)
		if err := json.Unmarshal(env.Result, result); err != nil {
			t.Fatal(err)
		}
		view, _ := exp.LookupView(name)
		var rendered bytes.Buffer
		if err := view.Render(&rendered, env.Spec, reflect.ValueOf(result).Elem().Interface(), false); err != nil {
			t.Fatal(err)
		}
		if rendered.String() != text {
			t.Errorf("%v: table differs from the rendering of its JSON result\n--- table ---\n%s\n--- json ---\n%s",
				args, text, rendered.String())
		}
	}
}

// A schedule given to a name whose spec has no faults is an error that
// names the ones that do, in both output formats.
func TestFaultsRejectedWhereUnread(t *testing.T) {
	for _, args := range [][]string{{"fig6"}, {"-format", "json", "ratio"}, {"table1"}} {
		out, errOut, code := runCLI(t, append([]string{"-faults", stormFaults}, args...)...)
		if code != 2 || out != "" {
			t.Fatalf("%v: exit %d with output %q, want exit 2 and none", args, code, out)
		}
		for _, want := range []string{"fig18", "fig3", "faultsweep", "incast"} {
			if !strings.Contains(errOut, want) {
				t.Errorf("%v: error %q does not name %s", args, errOut, want)
			}
		}
	}
}

func TestBadInputExits2(t *testing.T) {
	for _, args := range [][]string{
		{}, {"nope"}, {"-format", "xml", "fig3"}, {"-bogus", "fig3"},
		{"-hosts", "1", "incast"}, {"-partitioned", "-faults", stormFaults, "incast"},
		{"-format", "json", "table1"}, {"-fidelity", "analytic", "quadrant"},
	} {
		if _, _, code := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// The package comment carries the usage name list; -update regenerates it
// from the registry.
func TestDocCommentListsNames(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	const head = "// Names, generated from the experiment registry in internal/exp:\n//\n"
	start := bytes.Index(src, []byte(head))
	if start < 0 {
		t.Fatal("main.go lost its name-list header")
	}
	start += len(head)
	end := start + bytes.Index(src[start:], []byte("//\n"))
	lines := strings.Split(usage(), "\n")[1:] // drop the usage line
	var want bytes.Buffer
	for _, l := range lines {
		want.WriteString("//\t" + l + "\n")
	}
	if bytes.Equal(src[start:end], want.Bytes()) {
		return
	}
	if !*update {
		t.Fatalf("package comment name list is stale (go test -run DocComment -update):\n%s", want.Bytes())
	}
	out := append(append(append([]byte(nil), src[:start]...), want.Bytes()...), src[end:]...)
	if err := os.WriteFile("main.go", out, 0o644); err != nil {
		t.Fatal(err)
	}
}
