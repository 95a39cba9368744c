package saga

import (
	"errors"
	"fmt"

	"saga/internal/wal"
)

// Durability (internal/wal): crash-safe persistence for the knowledge
// graph. A DurableManager pairs a Graph with a write-ahead log and
// watermark-consistent checkpoints in a data directory; reopening the
// directory reconstructs the graph to its last durable watermark
// (checkpoint load + log-suffix replay).
type (
	// DurableManager is the write-ahead-log manager attached to a graph.
	DurableManager = wal.Manager
	// DurableOptions configure OpenDurable (fsync policy, checkpoint
	// cadence, filesystem override).
	DurableOptions = wal.Options
	// RecoveryInfo reports what a durable open found and did.
	RecoveryInfo = wal.RecoveryInfo
	// SyncPolicy selects when the log is fsynced.
	SyncPolicy = wal.SyncPolicy
)

// The two fsync policies.
const (
	// SyncEachCommit fsyncs inside every Commit (the default); nothing
	// acknowledged is lost.
	SyncEachCommit = wal.SyncEachCommit
	// SyncNever fsyncs only at checkpoints and Close.
	SyncNever = wal.SyncNever
)

// ImportGraph copies src's ontology, entities, predicates, and triples
// into the empty graph dst (bulk seeding for a durable data directory).
var ImportGraph = wal.ImportGraph

// OpenDurable opens (or creates) the durable data directory dir over the
// empty graph g: an existing directory is recovered into g, a fresh one
// starts an empty log. Callers mutate g as usual and call Commit /
// Checkpoint on the manager to persist.
func OpenDurable(dir string, g *Graph, opts DurableOptions) (*DurableManager, *RecoveryInfo, error) {
	return wal.Open(dir, g, opts)
}

// OpenDurablePlatform opens the durable data directory dir and wraps the
// recovered graph in a Platform whose durability hooks (ODKE barrier,
// CloseDurable) are wired. The returned RecoveryInfo reports what was
// recovered; a fresh directory yields an empty platform.
func OpenDurablePlatform(dir string, opts DurableOptions) (*Platform, *RecoveryInfo, error) {
	g := NewGraph()
	m, info, err := wal.Open(dir, g, opts)
	if err != nil {
		return nil, info, err
	}
	p := New(g)
	p.wal = m
	return p, info, nil
}

// Durability returns the platform's WAL manager, or nil when the
// platform is memory-only (constructed with New rather than
// OpenDurablePlatform).
func (p *Platform) Durability() *DurableManager { return p.wal }

// SyncDurable commits and fsyncs every mutation applied so far,
// returning the acknowledged-durable watermark.
func (p *Platform) SyncDurable() (uint64, error) {
	if p.wal == nil {
		return 0, errors.New("saga: platform is not durable; use OpenDurablePlatform")
	}
	return p.wal.Sync()
}

// CheckpointDurable checkpoints the current watermark — as a delta
// chained to the previous checkpoint, or a full one when the chain rule
// calls for it (see wal.Manager.Checkpoint); nothing when the watermark
// has not moved — and truncates the log behind it.
func (p *Platform) CheckpointDurable() (uint64, error) {
	if p.wal == nil {
		return 0, errors.New("saga: platform is not durable; use OpenDurablePlatform")
	}
	return p.wal.Checkpoint()
}

// CloseDurable flushes, fsyncs, and closes the platform's WAL. The
// graph stays usable in memory; further mutations are no longer logged.
func (p *Platform) CloseDurable() error {
	if p.wal == nil {
		return nil
	}
	err := p.wal.Close()
	p.wal = nil
	if err != nil {
		return fmt.Errorf("saga: close durable state: %w", err)
	}
	return nil
}
