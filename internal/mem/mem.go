// Package mem defines the shared request model of the host network: 64-byte
// cacheline transactions classified by source (compute vs. peripheral) and
// kind (read vs. write), plus the physical-address-to-DRAM mapping.
//
// Every data transfer in the simulator — an LFB miss, an L2 writeback, a DMA
// write from an NVMe device or a NIC — is a stream of these requests, exactly
// mirroring the paper's cacheline-granularity view of the host network (§3).
//
// # Ownership
//
// Requests are recycled, so the simulator's request path allocates nothing
// in steady state. Each originating component (a core, an IIO, a CHA for
// its DDIO evictions and directory reads) takes its requests from its own
// Pool. A pooled request starts with one reference, and each request path
// has exactly one release point, where the last component to touch the
// request calls Release:
//
//   - a read the CHA serves (C2M demand and prefetch reads, LLC and DDIO
//     hits, P2M reads, directory reads): the CHA's return event, after Done;
//   - a write that reaches DRAM: the CHA, when the write's burst completes;
//   - a P2M write that DDIO absorbs: the CHA, after Done and after its last
//     read of the request (an eviction it emits is a new request);
//   - a CXL read: the expander's read-back event, after Done;
//   - a CXL posted write: the expander, twice. It takes a Hold when it
//     admits the write, because the ack crossing back and the expander's
//     memory controller both keep it and neither is reliably the last; the
//     ack event releases after Done, and the expander's WriteComplete after
//     its backlog drain.
//
// A component that keeps a request past its path's release point takes a
// Hold first and releases it when done (the NUMA router's cross-socket
// completion does). Unreleased is always safe; released early is not: the
// request is zeroed and reissued while something still reads it, which
// corrupts results without failing.
package mem

import "repro/internal/sim"

// LineSize is the cacheline size in bytes. The entire host network moves data
// at this granularity.
const LineSize = 64

// Kind classifies a memory request as a read or a write.
type Kind uint8

// Request kinds.
const (
	Read Kind = iota
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Source classifies who generated a request: a CPU core (C2M) or a peripheral
// device through the IIO (P2M). The paper's central observation is that the
// same (kind) of request traverses a different flow-control domain depending
// on this classification.
type Source uint8

// Request sources.
const (
	C2M Source = iota
	P2M
)

// String returns "C2M" or "P2M".
func (s Source) String() string {
	if s == C2M {
		return "C2M"
	}
	return "P2M"
}

// Addr is a physical byte address.
type Addr uint64

// Line returns the cacheline-aligned address.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// Request is one in-flight cacheline transaction. A request is created when
// its domain credit is allocated (LFB entry for C2M, IIO buffer entry for
// P2M) and completed when the credit is replenished.
type Request struct {
	Addr   Addr
	Kind   Kind
	Source Source
	// hasCoord (see coord) and refs share Kind's word, which keeps a
	// request in the 128-byte size class.
	hasCoord bool
	refs     int32 // references Release has yet to drop
	// Origin identifies the issuing agent: core index for C2M, device index
	// for P2M.
	Origin int

	// Done is invoked exactly once when the request's domain credit is
	// replenished: data return for reads, CHA admission for C2M writes, and
	// WPQ admission for P2M writes. Components bind it once, at
	// construction, and read what they need from the request itself.
	Done func(*Request)
	// Notify is a callback the issuing component's Done handler runs on the
	// requester's behalf (the IIO carries its device's completion here).
	Notify func()

	// Timestamps stamped as the request traverses the host network. A zero
	// value means the stage was not (yet) reached.
	TAlloc    sim.Time // domain credit allocated at sender
	TCHAEnter sim.Time // arrived at CHA admission stage
	TCHAAdmit sim.Time // admitted into the CHA entry pool
	TMCEnq    sim.Time // enqueued into the MC RPQ/WPQ
	TIssue    sim.Time // issued to a DRAM bank
	TBurst    sim.Time // data burst completed on the memory channel
	TDone     sim.Time // domain credit replenished

	// coord caches the Mapper decode of Addr. Addr never changes while the
	// request is in flight (Release clears the cache) and a request reaches
	// exactly one memory controller, so the decode is stable; the FR-FCFS
	// scan re-reads it every scheduling pass.
	coord Coord

	// pool is the free list the request returns to; nil for a request
	// built as a literal.
	pool *Pool
}

// MapCoord returns m.Map(r.Addr), memoized in the request.
func (r *Request) MapCoord(m *Mapper) Coord {
	if !r.hasCoord {
		r.coord = m.Map(r.Addr)
		r.hasCoord = true
	}
	return r.coord
}

// Latency reports TDone - TAlloc, the full domain residency of the request.
func (r *Request) Latency() sim.Time { return r.TDone - r.TAlloc }

// Pool is one component's free list of requests. It is not safe for
// concurrent use: every pool belongs to a component of one engine, and an
// engine runs on one goroutine.
type Pool struct{ free []*Request }

// Get returns a zeroed request holding one reference, reusing a released
// one when the list has any.
func (p *Pool) Get() *Request {
	var r *Request
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		r = &Request{pool: p}
	}
	r.refs = 1
	return r
}

// Hold adds a reference, delaying the request's return to its pool until a
// matching Release. It does nothing on a request built as a literal.
func (r *Request) Hold() {
	if r.pool == nil {
		return
	}
	if r.refs <= 0 {
		panic("mem: Hold on a released request")
	}
	r.refs++
}

// Release drops a reference. Dropping the last one zeroes the request and
// returns it to its pool; releasing it again panics. It does nothing on a
// request built as a literal.
func (r *Request) Release() {
	p := r.pool
	if p == nil {
		return
	}
	if r.refs <= 0 {
		panic("mem: Release on a released request")
	}
	if r.refs--; r.refs > 0 {
		return
	}
	*r = Request{pool: p}
	p.free = append(p.free, r)
}

// Submitter is anything that accepts requests at a host-network ingress: a
// CHA directly, or a NUMA router that forwards to the home socket's CHA.
type Submitter interface {
	Submit(r *Request)
}
