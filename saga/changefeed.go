package saga

import (
	"errors"
	"iter"

	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/wal"
)

// Changefeed surface: as-of reads and live subscriptions, both built on
// the graph's mutation log (kg.Changefeed). As-of reads additionally
// need the WAL's retained checkpoints, so they require a durable
// platform; subscriptions work on any platform.

// Changefeed-related aliases (internal/kg, internal/graphengine,
// internal/wal).
type (
	// Changefeed is a cursor-bearing subscriber handle on the graph's
	// mutation log (see Graph.Feed).
	Changefeed = kg.Changefeed
	// Subscription is a live standing conjunctive query.
	Subscription = graphengine.Subscription
	// SubscriptionEvent is one incremental answer-set update.
	SubscriptionEvent = graphengine.SubscriptionEvent
	// SubscribeOptions configure a subscription's buffering, coalescing
	// window, and eviction bound.
	SubscribeOptions = graphengine.SubscribeOptions
	// SubscriptionStats snapshots the engine's subscription hub.
	SubscriptionStats = graphengine.SubscriptionStats
	// AsOfOverlay is a point-in-time conjunctive read surface over a
	// retained checkpoint plus a log suffix.
	AsOfOverlay = graphengine.Overlay
)

// Changefeed error sentinels.
var (
	// ErrOutsideRetention reports an as-of watermark older than the
	// oldest retained checkpoint.
	ErrOutsideRetention = wal.ErrOutsideRetention
	// ErrSlowSubscriber reports a subscription evicted for falling too
	// far behind.
	ErrSlowSubscriber = graphengine.ErrSlowSubscriber
)

// QueryRowsAt evaluates a conjunctive query against the graph as it was
// at watermark asOf, with the same options contract as QueryRows (limit
// push-down, cursors, timeout); the stream's row order is identical to
// what QueryRows produced at that watermark. The state is reconstructed
// from the newest retained checkpoint at or below asOf plus the log
// suffix, joined through a read overlay; the live graph is never blocked
// or copied. Requires a durable platform; watermarks older than the
// oldest retained checkpoint return ErrOutsideRetention (raise
// DurableOptions.RetainCheckpoints to keep more history). Unlike
// QueryRows, reconstruction can fail, so the iterator is returned
// alongside an error.
func (p *Platform) QueryRowsAt(clauses []QueryClause, asOf uint64, opts QueryOptions) (iter.Seq2[QueryRow, error], error) {
	ov, err := p.overlayAt(asOf)
	if err != nil {
		return nil, err
	}
	return ov.StreamRows(clauses, opts), nil
}

// overlayAt reconstructs the point-in-time read overlay for asOf.
func (p *Platform) overlayAt(asOf uint64) (*graphengine.Overlay, error) {
	if p.wal == nil {
		return nil, errors.New("saga: as-of reads require a durable platform; use OpenDurablePlatform")
	}
	base, suffix, err := p.wal.SnapshotAt(asOf)
	if err != nil {
		return nil, err
	}
	return graphengine.NewOverlay(base, suffix), nil
}

// Subscribe registers a standing conjunctive query: the full answer
// set arrives as the first event, then incremental adds and retracts
// as the graph mutates (see graphengine.Engine.Subscribe for delivery,
// coalescing, and eviction semantics). This is the surface behind the
// HTTP /subscribe endpoint.
func (p *Platform) Subscribe(clauses []QueryClause, opts SubscribeOptions) (*Subscription, error) {
	return p.engine.Subscribe(clauses, opts)
}

// SubscriptionStats snapshots the engine's subscription hub (live
// subscriber count, slowest-subscriber lag, lifetime evictions).
func (p *Platform) SubscriptionStats() SubscriptionStats {
	return p.engine.SubscriptionStats()
}

// ChangefeedStats is the changefeed observability snapshot surfaced on
// GET /health.
type ChangefeedStats struct {
	// Watermark is the graph's current mutation sequence.
	Watermark uint64 `json:"watermark"`
	// DurableLSN is the highest fsync-acknowledged mutation sequence
	// (0 on memory-only platforms).
	DurableLSN uint64 `json:"durable_lsn"`
	// RetainedCheckpoints is how many checkpoints the WAL currently
	// retains for as-of reads (0 on memory-only platforms).
	RetainedCheckpoints int `json:"retained_checkpoints"`
	// Subscribers is the number of live subscriptions.
	Subscribers int `json:"subscribers"`
	// SlowestSubscriberLag is the largest watermark gap between the
	// graph and a subscriber's last delivered event.
	SlowestSubscriberLag uint64 `json:"slowest_subscriber_lag"`
	// SubscriberEvictions counts subscribers dropped for falling too
	// far behind, over the platform's lifetime.
	SubscriberEvictions int64 `json:"subscriber_evictions"`
	// LogEntries is the number of mutations the graph's in-memory log
	// retains: those above the slowest open changefeed's cursor (on a
	// durable platform, the newest checkpoint at the latest), give or
	// take a log chunk a shard.
	LogEntries int `json:"log_entries"`
	// LogFloor is the highest mutation sequence number dropped from the
	// in-memory log.
	LogFloor uint64 `json:"log_floor"`
}

// ChangefeedStats snapshots the platform's changefeed: the mutation-log
// watermark and retention, durability progress, as-of retention, and
// subscription health.
func (p *Platform) ChangefeedStats() ChangefeedStats {
	st := ChangefeedStats{
		Watermark:  p.graph.LastSeq(),
		LogEntries: p.graph.LogEntries(),
		LogFloor:   p.graph.LogFloor(),
	}
	if p.wal != nil {
		st.DurableLSN = p.wal.DurableLSN()
		st.RetainedCheckpoints = p.wal.RetainedCheckpoints()
	}
	sub := p.engine.SubscriptionStats()
	st.Subscribers = sub.Subscribers
	st.SlowestSubscriberLag = sub.SlowestLag
	st.SubscriberEvictions = sub.Evictions
	return st
}
