package exp

import (
	"context"

	"repro/internal/runner"
)

// Every multi-point sweep in this package fans its points out on a
// runner pool sized by Options.Parallelism. A point never shares mutable
// state with another point — each builds its own host.Host and sim.Engine —
// so the parallel schedule cannot change results; the determinism tests
// compare serial and parallel runs bit-for-bit.
//
// Options.BaseCtx bounds the sweeps (no new point starts once it is done)
// and Options.Progress observes them (one call per completed task); neither
// can perturb results.

// sweepCtx returns the context bounding a sweep: Options.BaseCtx, or
// context.Background() when unset.
func (o Options) sweepCtx() context.Context {
	if o.BaseCtx != nil {
		return o.BaseCtx
	}
	return context.Background()
}

// noteProgress reports one completed sweep task to the observer, if any.
func (o Options) noteProgress() {
	if o.Progress != nil {
		o.Progress()
	}
}

// pmap evaluates fn(i) for every i in [0, n) on the options' worker pool
// and returns the results in index order. A panic inside a point resurfaces
// on the caller's goroutine as a *runner.PanicError naming the point; a
// cancelled BaseCtx resurfaces as a panic carrying ctx.Err() (hostnetd
// recovers it into a job state).
func pmap[T any](opt Options, n int, fn func(int) T) []T {
	out, err := runner.Map(opt.sweepCtx(), opt.Parallelism, n, func(i int) T {
		v := fn(i)
		opt.noteProgress()
		return v
	})
	if err != nil {
		panic(err)
	}
	return out
}

// sweep runs a shared baseline task and one task per point on the options'
// pool — the shape of every baseline-plus-points experiment — and returns
// the points in order.
func sweep[X, P any](opt Options, xs []X, baseline func(), point func(i int, x X) P) []P {
	pts := make([]P, len(xs))
	tasks := []func(){baseline}
	for i, x := range xs {
		tasks = append(tasks, func() { pts[i] = point(i, x) })
	}
	pdo(opt, tasks...)
	return pts
}

// sweepTasks mirrors sweep's progress calls: the baseline plus one per
// point.
func sweepTasks(points int) int { return points + 1 }

// pdo runs a fixed set of heterogeneous tasks (e.g. a baseline run plus the
// sweep points) on the options' worker pool, with the same panic semantics
// as pmap.
func pdo(opt Options, tasks ...func()) {
	if err := runner.ForEach(opt.sweepCtx(), opt.Parallelism, len(tasks), func(i int) {
		tasks[i]()
		opt.noteProgress()
	}); err != nil {
		panic(err)
	}
}
