package workload

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TraceEntry is one recorded access: what was touched and how long after the
// previous access it was requested.
type TraceEntry struct {
	Addr mem.Addr
	Kind mem.Kind
	Gap  sim.Time // request spacing relative to the previous entry
}

// Trace is a replayable access sequence. Traces make workloads portable:
// record one run's stream (or import one from a real system's memtrace) and
// replay it against any host configuration.
type Trace []TraceEntry

// WriteTo serializes the trace as lines of "addr kind gap_ps" (text, one
// entry per line) — trivially diffable and greppable.
func (t Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, e := range t {
		k := "r"
		if e.Kind == mem.Write {
			k = "w"
		}
		m, err := fmt.Fprintf(bw, "%x %s %d\n", uint64(e.Addr), k, int64(e.Gap))
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadTrace parses the WriteTo format.
func ReadTrace(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var addr uint64
		var kind string
		var gap int64
		if _, err := fmt.Sscanf(line, "%x %s %d", &addr, &kind, &gap); err != nil {
			return nil, fmt.Errorf("workload: bad trace line %q: %w", line, err)
		}
		k := mem.Read
		if kind == "w" {
			k = mem.Write
		}
		t = append(t, TraceEntry{Addr: mem.Addr(addr), Kind: k, Gap: sim.Time(gap)})
	}
	return t, sc.Err()
}

// Recorder wraps a generator and records the first Limit accesses it
// produces (with their request spacing) while passing them through
// unchanged.
type Recorder struct {
	Inner cpu.Generator
	Limit int

	trace  Trace
	lastAt sim.Time
	seen   bool
}

// NewRecorder wraps inner, recording up to limit accesses.
func NewRecorder(inner cpu.Generator, limit int) *Recorder {
	return &Recorder{Inner: inner, Limit: limit}
}

// Trace returns the recorded entries so far.
func (r *Recorder) Trace() Trace { return r.trace }

// Poll implements cpu.Generator.
func (r *Recorder) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	acc, at, ok := r.Inner.Poll(now)
	if ok && at <= now && len(r.trace) < r.Limit {
		gap := sim.Time(0)
		if r.seen {
			gap = now - r.lastAt
		}
		r.seen = true
		r.lastAt = now
		r.trace = append(r.trace, TraceEntry{Addr: acc.Addr, Kind: acc.Kind, Gap: gap})
	}
	return acc, at, ok
}

// OnComplete implements cpu.Generator.
func (r *Recorder) OnComplete(acc cpu.Access, now sim.Time) { r.Inner.OnComplete(acc, now) }

// Replay replays a trace, honoring the recorded request spacing. When Loop
// is set the trace repeats indefinitely; otherwise the generator blocks
// forever after the last entry (the core goes idle).
type Replay struct {
	T    Trace
	Loop bool

	pos     int
	readyAt sim.Time
}

// NewReplay returns a replay generator.
func NewReplay(t Trace, loop bool) *Replay { return &Replay{T: t, Loop: loop} }

// Poll implements cpu.Generator.
func (g *Replay) Poll(now sim.Time) (cpu.Access, sim.Time, bool) {
	if g.pos >= len(g.T) {
		if !g.Loop || len(g.T) == 0 {
			return cpu.Access{}, 0, false
		}
		g.pos = 0
	}
	e := g.T[g.pos]
	// An entry's Gap is its spacing after the previous issue.
	if at := g.readyAt + e.Gap; at > now {
		return cpu.Access{}, at, true
	}
	g.pos++
	g.readyAt = now
	return cpu.Access{Addr: e.Addr, Kind: e.Kind}, now, true
}

// OnComplete implements cpu.Generator.
func (g *Replay) OnComplete(cpu.Access, sim.Time) {}
