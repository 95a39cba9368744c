package kg

import "slices"

// Changefeed is a cursor-bearing subscriber handle over the graph's
// mutation log: the one implementation of the pull-then-recheck-floor
// consumption contract that every derived structure (adjacency
// snapshots, the rules engine's derived facts, the WAL drain, live
// subscriptions) rides instead of hand-rolling it.
//
// The contract:
//
//   - Registration: Feed opens a feed and registers it with the graph;
//     Close unregisters it. The log keeps exactly the entries above the
//     smallest open cursor (give or take the one chunk per shard the
//     log is trimmed by) and none when no feed is open, so a consumer
//     that stops reading must Close its feed or it pins the log. A feed
//     Bound at a lag stops holding the log once it lags past it.
//   - Cursor: the feed has consumed exactly the first Cursor()
//     mutations. A fresh feed starts wherever the consumer's derived
//     state stands — Feed(0) for "from the beginning", Feed(LastSeq())
//     for "from now on". A feed opened at or above LogFloor() stays
//     complete while it is open. A consumer that builds its state from
//     a cut opens its feed first (at 0, or at any cursor it already
//     holds), reads the cut, and Resets the feed to the cut's watermark:
//     the open feed keeps every entry past the cut in the log.
//   - Pull: returns the mutations strictly after the cursor under one
//     consistent all-shard cut and advances the cursor past them. The
//     second return value reports completeness.
//   - Floor: LogFloor is the highest sequence number dropped from the
//     log. Retention never raises it past an open cursor within its
//     feed's bound; TruncateLog and AdvanceWatermark may, and a feed
//     opened below it starts behind it. Entries are dropped only after
//     the floor is raised, so Pull detects a hole — floor observed
//     above the cursor after pulling — and returns (nil, false) without
//     advancing: the batch may be missing dropped entries, so applying
//     it would corrupt derived state.
//   - Fallback: on an incomplete Pull the consumer must rematerialize
//     its derived state from a full read (TriplesSnapshot or
//     equivalent) and Reset the feed to the watermark that read
//     reflects. The floor-is-raised-first ordering guarantees an
//     incomplete batch is always detected, never silently applied.
//   - Lag: LastSeq() minus the cursor — how far behind live the
//     consumer is, the staleness metric exported by /health.
//
// A Changefeed is not safe for concurrent use; each consumer owns its
// own feed.
type Changefeed struct {
	g *Graph
	// cursor and maxLag are written under g.feedMu, so retention reads
	// them there; the owner reads them without the lock.
	cursor uint64
	maxLag uint64
}

// Feed opens a changefeed positioned at cursor and registers it: the
// first Pull returns mutations with sequence numbers strictly greater
// than cursor, and the log keeps them until the feed reads past them or
// is closed.
func (g *Graph) Feed(cursor uint64) *Changefeed {
	f := &Changefeed{g: g, cursor: cursor}
	g.updateFeeds(func() { g.feeds = append(g.feeds, f) })
	return f
}

// Close unregisters the feed, releasing the log entries it alone held.
// Closing a closed feed does nothing. A closed feed still pulls, but
// nothing holds its entries, so its pulls may come back incomplete.
func (f *Changefeed) Close() {
	f.g.updateFeeds(func() {
		f.g.feeds = slices.DeleteFunc(f.g.feeds, func(o *Changefeed) bool { return o == f })
	})
}

// Pull returns the mutations strictly after the cursor, in ascending
// sequence order under one consistent all-shard cut, and advances the
// cursor past them. complete=false means log compaction has passed the
// cursor (LogFloor > cursor) so the batch may have holes; the cursor is
// left unchanged and the caller must rebuild its derived state and
// Reset. A complete empty batch means the feed is caught up.
func (f *Changefeed) Pull() (muts []Mutation, complete bool) {
	return f.PullAppend(nil)
}

// PullAppend is Pull appending the batch to dst and returning the
// extended slice, for a consumer that drains on a hot path into one
// buffer it owns. An incomplete pull returns dst as it was given.
func (f *Changefeed) PullAppend(dst []Mutation) (muts []Mutation, complete bool) {
	muts = f.g.appendMutationsSince(dst, f.cursor)
	// Floor check AFTER the pull: the floor is raised before entries
	// drop, so floor <= cursor here proves no entry below the batch was
	// discarded mid-pull.
	if f.g.LogFloor() > f.cursor {
		return dst, false
	}
	if n := len(muts); n > len(dst) {
		f.Reset(muts[n-1].Seq)
	}
	return muts, true
}

// Cursor returns the watermark the feed has consumed through: the feed
// has delivered exactly the mutations with Seq <= Cursor().
func (f *Changefeed) Cursor() uint64 { return f.cursor }

// Reset repositions the feed at seq, discarding its notion of progress.
// Consumers call it after rematerializing derived state at watermark
// seq (the fallback leg of the contract) or when adopting state built
// elsewhere (a loaded checkpoint).
func (f *Changefeed) Reset(seq uint64) {
	f.g.updateFeeds(func() { f.cursor = seq })
}

// Bound caps the lag at which the feed still holds the log: once the
// watermark is more than maxLag past the cursor, retention keeps nothing
// for the feed, and its next Pull may come back incomplete. A consumer
// for which a delta that long costs no less than its fallback bounds its
// feed, so that a spell without reads does not pin the log. 0 removes
// the cap.
func (f *Changefeed) Bound(maxLag uint64) {
	f.g.updateFeeds(func() { f.maxLag = maxLag })
}

// Lag returns how many mutations the feed is behind the graph's
// watermark (0 when caught up). The watermark is a bare atomic load, so
// treat the value as a staleness hint, not an exact queue depth.
func (f *Changefeed) Lag() uint64 {
	if wm := f.g.LastSeq(); wm > f.cursor {
		return wm - f.cursor
	}
	return 0
}

// updateFeeds runs change — a registration, a cursor move, a bound or
// a close — under feedMu, then drops the chunks no open feed still
// needs. It locks only the shards whose first chunk can go: a cursor
// that moves within a chunk costs a load per shard.
func (g *Graph) updateFeeds(change func()) {
	g.feedMu.Lock()
	change()
	keep := g.retainAboveLocked()
	g.feedMu.Unlock()
	for i := range g.shards {
		sh := &g.shards[i]
		if at := sh.trimAt.Load(); at != 0 && at <= keep {
			sh.mu.Lock()
			g.trimShardLocked(sh)
			sh.mu.Unlock()
		}
	}
}

// retainAboveLocked returns the smallest cursor among the open feeds
// that still hold the log — every feed but a bounded one lagging past
// its bound: the log must keep every entry above it. With no such feed
// it is the largest seq, and the log need keep nothing. The caller
// holds g.feedMu.
func (g *Graph) retainAboveLocked() uint64 {
	keep, wm := ^uint64(0), g.seq.Load()
	for _, f := range g.feeds {
		if f.maxLag == 0 || f.cursor+f.maxLag >= wm {
			keep = min(keep, f.cursor)
		}
	}
	return keep
}

// trimShardLocked drops sh's leading log chunks whose entries every open
// feed has read, raising the floor past them first, and records where
// the first chunk left ends. Both happen under feedMu: a feed registered
// after the smallest cursor was read sees the raised floor, so it is
// never both counted out and left above the floor, and an updateFeeds
// that follows sees the recorded end. The caller holds sh's write lock.
func (g *Graph) trimShardLocked(sh *graphShard) {
	g.feedMu.Lock()
	n, last := sh.log.chunksThrough(g.retainAboveLocked())
	g.raiseFloor(last)
	sh.log.dropChunks(n)
	sh.trimAt.Store(sh.log.firstEnd())
	g.feedMu.Unlock()
}
