package exp

import "repro/internal/fault"

// FaultSweepPoint pairs one core count's healthy and faulted measurements.
type FaultSweepPoint struct {
	Cores   int
	Healthy RDMAQuadrantPoint
	Faulted RDMAQuadrantPoint
}

// FaultSweep is a Fig-3-style quadrant sweep run twice — once healthy, once
// with the fault schedule — so the marginal cost of transient degradation is
// read directly off the paired points.
type FaultSweep struct {
	Quadrant Quadrant
	Schedule fault.Schedule
	Points   []FaultSweepPoint
}

// RunFaultSweep runs the RDMA quadrant sweep healthy and faulted over the
// same core counts (the faulted sweep applies sched to every host it
// builds, isolated and colocated alike) and zips the results. Both sweeps
// run concurrently on the options' pool; each is itself a pdo fan-out, and
// every point builds its own engine, so the pairing is deterministic.
func RunFaultSweep(q Quadrant, coreCounts []int, sched fault.Schedule, opt Options) *FaultSweep {
	sched = sched.Normalized()
	var healthy, faulted []RDMAQuadrantPoint
	healthyOpt, faultedOpt := opt, opt
	healthyOpt.Faults = nil
	faultedOpt.Faults = sched
	pdo(opt,
		func() { healthy = RunRDMAQuadrant(q, coreCounts, healthyOpt) },
		func() { faulted = RunRDMAQuadrant(q, coreCounts, faultedOpt) },
	)
	out := &FaultSweep{Quadrant: q, Schedule: sched, Points: make([]FaultSweepPoint, len(coreCounts))}
	for i, n := range coreCounts {
		out.Points[i] = FaultSweepPoint{Cores: n, Healthy: healthy[i], Faulted: faulted[i]}
	}
	return out
}

// faultSweepTasks mirrors RunFaultSweep: two RDMA quadrant sweeps fanned
// out in parallel.
func faultSweepTasks(n Spec) int { return 2 + 2*quadrantTasks(n) }
