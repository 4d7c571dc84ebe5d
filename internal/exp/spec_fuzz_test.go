package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzSpec drives arbitrary input through the spec path hostnetd runs on
// every submission: strict decode, normalize, validate, canonicalize and,
// for a spec that validates, split it, count its tasks and build its host.
// Normalization must be idempotent, a raw spec and its normalized form must
// canonicalize alike, canonical bytes must survive decode and re-encode,
// a valid spec's times must survive conversion to sim.Time, and a valid
// spec must describe a host the real constructors accept. No simulation
// runs. The seed corpus is testdata/fuzz/FuzzSpec.
//
//	go test -run '^$' -fuzz '^FuzzSpec$' -fuzztime 30s ./internal/exp/
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(data)
		if err != nil {
			return
		}
		n := s.Normalized()
		if again := n.Normalized(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalized is not idempotent:\nonce  %+v\ntwice %+v", n, again)
		}
		canon, err := s.Canonical()
		normCanon, normErr := n.Canonical()
		if !bytes.Equal(canon, normCanon) || fmt.Sprint(err) != fmt.Sprint(normErr) {
			t.Fatalf("raw and normalized specs canonicalize apart:\nraw  %s (%v)\nnorm %s (%v)", canon, err, normCanon, normErr)
		}
		if err != nil {
			return
		}
		d, err := decodeSpec(canon)
		if err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", canon, err)
		}
		if again, err := json.Marshal(d); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical bytes do not survive decode and re-encode:\n%s\n%s (%v)", canon, again, err)
		}
		times := [][]int64{{n.WarmupNs}, {n.WarmupNs, n.WindowNs}}
		for _, w := range n.Faults {
			times = append(times, []int64{w.StartNs}, []int64{w.StartNs, w.DurationNs})
		}
		for _, ns := range times {
			if !fitsSimTime(ns...) {
				t.Fatalf("valid spec %s: the sum of %v ns overflows or wraps sim.Time", canon, ns)
			}
		}
		n.Points()
		SpecTasks(n)
		buildHost(n)
	})
}

// fitsSimTime reports whether the sum of the nanosecond counts xs neither
// overflows int64 nor wraps when converted to sim.Time picoseconds. It is
// computed directly, not from the bound Validate enforces.
func fitsSimTime(xs ...int64) bool {
	var sum int64
	for _, x := range xs {
		next := sum + x
		if (x > 0 && next < sum) || (x < 0 && next > sum) {
			return false
		}
		sum = next
	}
	return sim.Time(sum)*sim.Nanosecond/sim.Nanosecond == sim.Time(sum)
}

// decodeSpec decodes a spec the way hostnetd decodes a submission.
func decodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// buildHost builds the host config the normalized spec n's experiment
// builds, with mcisolation's reserve applied, and adds as many cores as
// n's largest core count.
func buildHost(n Spec) {
	cfg := n.options(Options{}).hostConfig()
	if registry[n.Experiment].shape.reserve {
		cfg.MC.WPQReserveP2M = n.Reserve
	}
	h := host.New(cfg)
	most := 0
	for _, c := range n.Cores {
		most = max(most, c)
	}
	for range most {
		h.AddCore(workload.NewSeqRead(h.Region(1<<30), 1<<30))
	}
}
