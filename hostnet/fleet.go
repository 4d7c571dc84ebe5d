package hostnet

import (
	"repro/internal/fleet"
	"repro/internal/store"
)

// Fleet-scale serving re-exports. A ResultStore persists job results on
// disk by content address (JobSpec SHA-256 -> checksummed bytes) so a
// daemon restart — or a whole fleet sharing one directory — serves past
// results without re-simulating. A FleetCoordinator shards splittable
// sweep specs point-by-point across worker hostnetds over the ordinary
// HTTP API and merges the answers into bytes identical to a single-node
// run. Both lean on the same guarantee: a JobSpec fully determines its
// result bytes, so replication needs no coherence and duplicate dispatch
// is harmless.
type (
	// ResultStore is the persistent content-addressed result store
	// (crash-atomic writes, checksum-verified reads, byte-capped GC).
	ResultStore = store.Store
	// StoreConfig tunes a ResultStore.
	StoreConfig = store.Config
	// FleetCoordinator fans sweeps out to a pool of worker hostnetds.
	FleetCoordinator = fleet.Coordinator
	// FleetConfig tunes a FleetCoordinator (workers, attempt budget,
	// steal threshold).
	FleetConfig = fleet.Config
	// FleetWorker names one worker daemon (base URL + in-flight bound).
	FleetWorker = fleet.Worker
)

// OpenStore opens (creating if needed) a persistent result store rooted at
// dir. Interrupted writes are swept, damaged entries are quarantined on
// read, and the index is rebuilt by directory scan — no journal.
func OpenStore(dir string, cfg StoreConfig) (*ResultStore, error) { return store.Open(dir, cfg) }

// NewFleet builds a sharding coordinator over the configured worker pool.
func NewFleet(cfg FleetConfig) (*FleetCoordinator, error) { return fleet.New(cfg) }
