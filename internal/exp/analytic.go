package exp

// The analytic fidelity tier: answering a Spec from the §7 predictive
// model (internal/analytic) instead of the discrete-event simulator. A
// quadrant point maps onto an analytic.Workload — N sequential C2M cores,
// optionally storing (Q3/Q4), colocated with a device stream offered at
// the link rate in the quadrant's DMA direction — on the calibrated
// Cascade Lake HWConfig. The model covers exactly the point sweeps the
// paper characterizes: everything else (fixed figures, fabric topologies,
// fault schedules, trace-driven apps, uncalibrated testbeds) is rejected
// with a typed *analytic.UnsupportedError that hostnetd maps to HTTP 422,
// telling clients to fall back to the sim tier.

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/analytic"
)

// AnalyticPoint is one (quadrant, cores) answer from the predictive model:
// the analytic tier's counterpart of QuadrantPoint.
type AnalyticPoint struct {
	Quadrant Quadrant
	Cores    int

	Iso analytic.Prediction // N C2M cores alone
	Co  analytic.Prediction // colocated with the quadrant's device stream
}

// C2MDegradation reports predicted isolated/colocated C2M throughput,
// mirroring QuadrantPoint.C2MDegradation.
func (p AnalyticPoint) C2MDegradation() float64 {
	return degradation(p.Iso.C2MBytesPerSec, p.Co.C2MBytesPerSec)
}

// unsupported wraps an UnsupportedError reason into the error RunSpec
// returns for specs outside the model's domain.
func unsupported(format string, args ...any) error {
	return fmt.Errorf("analytic fidelity: %w", &analytic.UnsupportedError{Reason: fmt.Sprintf(format, args...)})
}

// runSpecAnalytic answers a normalized, validated analytic-fidelity spec.
// The result is []AnalyticPoint in sweep order for every supported
// experiment (the registry's analytic entries: the parameterized point
// sweeps, and studies without a core axis — hostcc — as their single
// unmitigated colocation point).
func runSpecAnalytic(n Spec) (any, error) {
	e := registry[n.Experiment]
	if !e.analytic {
		return nil, unsupported("experiment %q has no predictive-model mapping (supported: %s)", n.Experiment,
			strings.Join(experimentsWhere(func(e *experiment) bool { return e.analytic }), ", "))
	}
	if n.Preset != "" && n.Preset != "cascadelake" {
		return nil, unsupported("preset %q has no calibration (only cascadelake)", n.Preset)
	}
	if n.DDIO {
		return nil, unsupported("the model has no DDIO term; submit as sim")
	}
	if len(n.Faults) > 0 {
		return nil, unsupported("fault schedules need the simulator's transient state")
	}
	hw := analytic.CascadeLakeHW()
	cores := n.Cores
	if e.split == nil {
		cores = cores[:1] // no core axis: the study takes a single count
	}
	pts := make([]AnalyticPoint, len(cores))
	for i, c := range cores {
		p, err := analyticQuadrantPoint(hw, Quadrant(n.Quadrant), c)
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// analyticQuadrantPoint answers one quadrant point from the predictive
// model: the isolated baseline (N cores alone) and the colocated
// prediction with the quadrant's device stream offered at the link rate.
func analyticQuadrantPoint(hw analytic.HWConfig, q Quadrant, cores int) (AnalyticPoint, error) {
	iso := analytic.Workload{C2MCores: cores, C2MWrites: q.C2MWrites()}
	co := iso
	if q.P2MWrites() {
		co.P2MWriteBytesPerSec = hw.PCIeBytesPerSec
	} else {
		co.P2MReadBytesPerSec = hw.PCIeBytesPerSec
	}
	isoP, err := analytic.Predict(hw, iso)
	if err != nil {
		return AnalyticPoint{}, fmt.Errorf("analytic iso point %v cores=%d: %w", q, cores, err)
	}
	coP, err := analytic.Predict(hw, co)
	if err != nil {
		return AnalyticPoint{}, fmt.Errorf("analytic co point %v cores=%d: %w", q, cores, err)
	}
	return AnalyticPoint{Quadrant: q, Cores: cores, Iso: isoP, Co: coP}, nil
}

// CrossvalEnvelopePct pins the analytic tier's accepted error envelope on
// the colocated C2M bandwidth: the same ±25% the predictor's accuracy test
// (exp/predict_test.go) holds against the simulator.
const CrossvalEnvelopePct = 25

// CrossvalPoint compares the two fidelity tiers at one (quadrant, cores)
// configuration. Errors use analytic.ErrorPct (signed; estimated vs the
// sim measurement).
type CrossvalPoint struct {
	Quadrant Quadrant
	Cores    int

	SimC2MBytesPerSec  float64
	PredC2MBytesPerSec float64
	BWErrPct           float64

	SimC2MReadLatencyNs  float64
	PredC2MReadLatencyNs float64
	LatErrPct            float64
}

// CrossvalResult is the crossval experiment's payload: the per-point
// analytic-vs-sim comparison across the core sweep of one quadrant.
type CrossvalResult struct {
	Quadrant Quadrant
	Points   []CrossvalPoint
}

// RunCrossval runs the quadrant sweep on both fidelity tiers and reports
// the analytic error per point: the experiment behind hostnetd's
// GET /crossval section and the CI envelope tier.
func RunCrossval(q Quadrant, coreCounts []int, opt Options) (*CrossvalResult, error) {
	hw := analytic.CascadeLakeHW()
	sim := RunQuadrant(q, coreCounts, opt)
	out := &CrossvalResult{Quadrant: q, Points: make([]CrossvalPoint, len(sim))}
	for i, sp := range sim {
		ap, err := analyticQuadrantPoint(hw, q, sp.Cores)
		if err != nil {
			return nil, err
		}
		out.Points[i] = crossvalPoint(sp, ap)
	}
	return out, nil
}

func crossvalPoint(sp QuadrantPoint, ap AnalyticPoint) CrossvalPoint {
	return CrossvalPoint{
		Quadrant:             sp.Quadrant,
		Cores:                sp.Cores,
		SimC2MBytesPerSec:    sp.Co.C2MBW,
		PredC2MBytesPerSec:   ap.Co.C2MBytesPerSec,
		BWErrPct:             analytic.ErrorPct(ap.Co.C2MBytesPerSec, sp.Co.C2MBW),
		SimC2MReadLatencyNs:  sp.Co.C2MReadLat,
		PredC2MReadLatencyNs: ap.Co.C2MReadLatencyNs,
		LatErrPct:            analytic.ErrorPct(ap.Co.C2MReadLatencyNs, sp.Co.C2MReadLat),
	}
}

// DecodeCrossval extracts the CrossvalResult payload from a crossval
// Result envelope.
func DecodeCrossval(env []byte) (*CrossvalResult, error) {
	var e struct {
		Spec   Spec           `json:"spec"`
		Result CrossvalResult `json:"result"`
	}
	if err := json.Unmarshal(env, &e); err != nil {
		return nil, fmt.Errorf("crossval: decoding envelope: %w", err)
	}
	if e.Spec.Experiment != "crossval" {
		return nil, fmt.Errorf("crossval: envelope carries experiment %q", e.Spec.Experiment)
	}
	return &e.Result, nil
}

// CrossvalFromEnvelopes compares an analytic Result envelope with the sim
// twin's envelope (same experiment, fidelity cleared) and returns the
// experiment name and per-point errors — hostnetd's background-refinement
// mode feeds its crossval tracker with these. Only the analytic experiments
// with a core axis compare structurally (quadrant, rdma); for anything else
// it returns nil points and no error.
func CrossvalFromEnvelopes(analyticEnv, simEnv []byte) (experiment string, pts []CrossvalPoint, err error) {
	var aEnv struct {
		Spec   Spec            `json:"spec"`
		Result []AnalyticPoint `json:"result"`
	}
	if err := json.Unmarshal(analyticEnv, &aEnv); err != nil {
		return "", nil, fmt.Errorf("crossval: decoding analytic envelope: %w", err)
	}
	if aEnv.Spec.Fidelity != FidelityAnalytic {
		return "", nil, fmt.Errorf("crossval: envelope is %q fidelity, want analytic", aEnv.Spec.Fidelity)
	}
	var sEnv resultEnvelope
	if err := json.Unmarshal(simEnv, &sEnv); err != nil {
		return "", nil, fmt.Errorf("crossval: decoding sim envelope: %w", err)
	}
	experiment = sEnv.Spec.Experiment
	if e := registry[experiment]; e == nil || !e.analytic || e.split == nil {
		return experiment, nil, nil // hostcc etc.: no per-point structural comparison
	}
	// A quadrant payload decodes as RDMA points with zero NIC observables.
	var simPts []RDMAQuadrantPoint
	if err := json.Unmarshal(sEnv.Result, &simPts); err != nil {
		return "", nil, fmt.Errorf("crossval: decoding sim %s payload: %w", experiment, err)
	}
	if len(simPts) != len(aEnv.Result) {
		return "", nil, fmt.Errorf("crossval: %d sim points vs %d analytic points", len(simPts), len(aEnv.Result))
	}
	pts = make([]CrossvalPoint, len(simPts))
	for i, sp := range simPts {
		ap := aEnv.Result[i]
		if sp.Cores != ap.Cores || sp.Quadrant != ap.Quadrant {
			return "", nil, fmt.Errorf("crossval: point %d mismatch: sim (q%d, %d cores) vs analytic (q%d, %d cores)",
				i, sp.Quadrant, sp.Cores, ap.Quadrant, ap.Cores)
		}
		pts[i] = crossvalPoint(sp.QuadrantPoint, ap)
	}
	return experiment, pts, nil
}
