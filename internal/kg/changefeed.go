package kg

// Changefeed is a cursor-bearing subscriber handle over the graph's
// mutation log: the one implementation of the pull-then-recheck-floor
// consumption contract that every derived structure (adjacency
// snapshots, the rules engine's derived facts, the WAL drain, live
// subscriptions) rides instead of hand-rolling it.
//
// The contract:
//
//   - Cursor: the feed has consumed exactly the first Cursor()
//     mutations. A fresh feed starts wherever the consumer's derived
//     state stands — Feed(0) for "from the beginning", Feed(LastSeq())
//     for "from now on".
//   - Pull: returns the mutations strictly after the cursor under one
//     consistent all-shard cut and advances the cursor past them. The
//     second return value reports completeness.
//   - Floor: the in-memory log is compacted (TruncateLog /
//     AdvanceWatermark raise LogFloor before dropping entries), so a
//     feed can fall behind the floor. Pull detects this — floor
//     observed above the cursor after pulling — and returns
//     (nil, false) without advancing: the batch may be missing dropped
//     entries, so applying it would corrupt derived state.
//   - Fallback: on an incomplete Pull the consumer must rematerialize
//     its derived state from a full read (TriplesSnapshot or
//     equivalent) and Reset the feed to the watermark that read
//     reflects. The floor-is-raised-first ordering guarantees an
//     incomplete batch is always detected, never silently applied.
//   - Lag: LastSeq() minus the cursor — how far behind live the
//     consumer is, the staleness metric exported by /health.
//
// A Changefeed is not safe for concurrent use; each consumer owns its
// own feed (they are a cursor plus a graph pointer, free to create).
type Changefeed struct {
	g      *Graph
	cursor uint64
}

// Feed returns a changefeed positioned at cursor: the first Pull
// returns mutations with sequence numbers strictly greater than cursor.
func (g *Graph) Feed(cursor uint64) *Changefeed {
	return &Changefeed{g: g, cursor: cursor}
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
		f.cursor = muts[n-1].Seq
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
func (f *Changefeed) Reset(seq uint64) { f.cursor = seq }

// Lag returns how many mutations the feed is behind the graph's
// watermark (0 when caught up). The watermark is a bare atomic load, so
// treat the value as a staleness hint, not an exact queue depth.
func (f *Changefeed) Lag() uint64 {
	if wm := f.g.LastSeq(); wm > f.cursor {
		return wm - f.cursor
	}
	return 0
}
