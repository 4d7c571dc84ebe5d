package hostnet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/hostnet"
	"repro/internal/exp"
)

// The public API end to end: the quickstart flow must reproduce the blue
// regime without touching internal packages.
func TestPublicAPIQuickstart(t *testing.T) {
	iso := hostnet.New(hostnet.CascadeLake())
	iso.AddCore(hostnet.SeqRead(iso.Region(1<<30), 1<<30))
	iso.Run(20*hostnet.Microsecond, 60*hostnet.Microsecond)
	isoBW := iso.C2MReadBW()

	h := hostnet.New(hostnet.CascadeLake())
	h.AddCore(hostnet.SeqRead(h.Region(1<<30), 1<<30))
	h.AddStorage(hostnet.BulkStorage(hostnet.DMAWrite, h.Region(1<<30)))
	h.Run(20*hostnet.Microsecond, 60*hostnet.Microsecond)

	degr := isoBW / h.C2MReadBW()
	if got := hostnet.Classify(degr, 1.0); got != hostnet.Blue {
		t.Fatalf("quickstart regime = %v (degr %.2fx), want blue", got, degr)
	}
	if h.P2MBW() < 13e9 {
		t.Fatalf("P2M bw %.1f GB/s", h.P2MBW()/1e9)
	}
}

func TestPublicDomainsAndExplain(t *testing.T) {
	ds := hostnet.CascadeLakeDomains()
	if ds[0].Kind != hostnet.C2MRead || ds[3].Kind != hostnet.P2MWrite {
		t.Fatalf("domain ordering wrong")
	}
	m := hostnet.Measurement{Kind: hostnet.C2MRead, AvgLatencyNanos: 91, MaxCreditsInUse: 12, AvgCreditsInUse: 12}
	u := hostnet.Measurement{Kind: hostnet.C2MRead, AvgLatencyNanos: 70}
	if s := hostnet.Explain(ds[0], m, u); !strings.Contains(s, "credits saturated") {
		t.Fatalf("Explain = %q", s)
	}
}

func TestPublicWorkloadConstructors(t *testing.T) {
	h := hostnet.New(hostnet.CascadeLake())
	h.AddCore(hostnet.SeqReadWrite(h.Region(1<<30), 1<<30))
	h.Run(10*hostnet.Microsecond, 20*hostnet.Microsecond)
	if h.C2MBW() <= 0 {
		t.Fatalf("no progress through public constructors")
	}
}

// Every registered experiment is reachable through the generic job path,
// from the JSON form hostnetd accepts: nested sections and the analytic
// tier included.
func TestPublicJobSpecReachesEveryExperiment(t *testing.T) {
	var specs []string
	for _, name := range exp.Experiments() {
		specs = append(specs, fmt.Sprintf(`{"experiment":%q,"warmup_ns":1000,"window_ns":2000}`, name))
	}
	specs = append(specs,
		`{"experiment":"quadrant","fidelity":"analytic","quadrant":3,"cores":[2]}`,
		`{"experiment":"fig18","warmup_ns":1000,"window_ns":2000,
		  "faults":[{"kind":"pfc_pause_storm","start_ns":1500,"duration_ns":500}]}`,
		`{"experiment":"incast","warmup_ns":1000,"window_ns":2000,"fabric":{"hosts":4,"partitioned":true}}`)
	for _, raw := range specs {
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		var spec hostnet.JobSpec
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("%s: decode: %v", raw, err)
		}
		b, err := hostnet.RunJobJSON(spec, hostnet.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		want, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, want) {
			t.Errorf("%s: result does not carry its canonical spec %s", raw, want)
		}
	}
}
