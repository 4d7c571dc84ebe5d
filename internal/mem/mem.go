// Package mem defines the shared request model of the host network: 64-byte
// cacheline transactions classified by source (compute vs. peripheral) and
// kind (read vs. write), plus the physical-address-to-DRAM mapping.
//
// Every data transfer in the simulator — an LFB miss, an L2 writeback, a DMA
// write from an NVMe device or a NIC — is a stream of these requests, exactly
// mirroring the paper's cacheline-granularity view of the host network (§3).
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
	ID     uint64
	Addr   Addr
	Kind   Kind
	Source Source
	// Origin identifies the issuing agent: core index for C2M, device index
	// for P2M.
	Origin int

	// Done is invoked exactly once when the request's domain credit is
	// replenished: data return for reads, CHA admission for C2M writes, and
	// WPQ admission for P2M writes.
	Done func(*Request)

	// Timestamps stamped as the request traverses the host network. A zero
	// value means the stage was not (yet) reached.
	TAlloc    sim.Time // domain credit allocated at sender
	TCHAEnter sim.Time // arrived at CHA admission stage
	TCHAAdmit sim.Time // admitted into the CHA entry pool
	TMCEnq    sim.Time // enqueued into the MC RPQ/WPQ
	TIssue    sim.Time // issued to a DRAM bank
	TBurst    sim.Time // data burst completed on the memory channel
	TDone     sim.Time // domain credit replenished

	// coord caches the Mapper decode of Addr. Addr never changes after
	// creation and a request reaches exactly one memory controller, so the
	// decode is stable; the FR-FCFS scan re-reads it every scheduling pass.
	coord    Coord
	hasCoord bool
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

// IDGen hands out unique request IDs.
type IDGen struct{ next uint64 }

// Next returns a fresh ID.
func (g *IDGen) Next() uint64 { g.next++; return g.next }

// Submitter is anything that accepts requests at a host-network ingress: a
// CHA directly, or a NUMA router that forwards to the home socket's CHA.
type Submitter interface {
	Submit(r *Request)
}
