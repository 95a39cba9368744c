package kg

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// buildMutating populates g with n single-triple mutations (plus a few
// retracts mixed in) and returns the set of asserted triples still live.
func buildMutating(t *testing.T, g *Graph, n int) {
	t.Helper()
	e := make([]EntityID, 8)
	for i := range e {
		e[i] = mustEntity(t, g, fmt.Sprintf("c%d", i), fmt.Sprintf("ent %d", i))
	}
	p := mustPredicate(t, g, "score")
	for i := 0; i < n; i++ {
		tr := Triple{Subject: e[i%len(e)], Predicate: p, Object: IntValue(int64(i))}
		if err := g.Assert(tr); err != nil {
			t.Fatalf("Assert %d: %v", i, err)
		}
		if i%5 == 4 {
			if !g.Retract(tr) {
				t.Fatalf("Retract %d missed", i)
			}
		}
	}
}

func TestTruncateLogRaisesFloorAndDropsEntries(t *testing.T) {
	g := NewGraphWithShards(4)
	buildMutating(t, g, 100)
	wm := g.LastSeq()
	if g.LogFloor() != 0 {
		t.Fatalf("fresh graph has floor %d", g.LogFloor())
	}
	all := g.appendMutationsSince(nil, 0)
	if uint64(len(all)) != wm {
		t.Fatalf("full log has %d entries, watermark %d", len(all), wm)
	}

	cut := wm / 2
	dropped := g.TruncateLog(cut)
	if uint64(dropped) != cut {
		t.Fatalf("TruncateLog(%d) dropped %d entries", cut, dropped)
	}
	if g.LogFloor() != cut {
		t.Fatalf("LogFloor = %d, want %d", g.LogFloor(), cut)
	}

	// MutationsSince(floor) must still be a complete, gapless feed.
	rest := g.appendMutationsSince(nil, cut)
	if uint64(len(rest)) != wm-cut {
		t.Fatalf("MutationsSince(%d) has %d entries, want %d", cut, len(rest), wm-cut)
	}
	for i, m := range rest {
		want := cut + uint64(i) + 1
		if m.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, m.Seq, want)
		}
		if m.Seq != all[m.Seq-1].Seq || m.T.IdentityKey() != all[m.Seq-1].T.IdentityKey() {
			t.Fatalf("entry %d diverged from pre-truncation log", i)
		}
	}

	// Truncating again at or below the floor is a no-op.
	if n := g.TruncateLog(cut); n != 0 {
		t.Fatalf("re-truncation dropped %d entries", n)
	}
	if n := g.TruncateLog(cut - 1); n != 0 {
		t.Fatalf("truncation below floor dropped %d entries", n)
	}
}

func TestTruncateLogClampsToWatermark(t *testing.T) {
	g := NewGraphWithShards(2)
	buildMutating(t, g, 30)
	wm := g.LastSeq()
	dropped := g.TruncateLog(wm + 1000)
	if uint64(dropped) != wm {
		t.Fatalf("dropped %d entries, want the full log (%d)", dropped, wm)
	}
	// The floor must be clamped to the watermark, not the requested value:
	// a floor above the watermark would wedge consumers forever.
	if g.LogFloor() != wm {
		t.Fatalf("LogFloor = %d, want watermark %d", g.LogFloor(), wm)
	}
	if rest := g.appendMutationsSince(nil, wm); len(rest) != 0 {
		t.Fatalf("log still has %d entries past the watermark", len(rest))
	}
	// New mutations land above the floor and feed normally.
	id := mustEntity(t, g, "fresh", "fresh")
	p := mustPredicate(t, g, "after")
	if err := g.Assert(Triple{Subject: id, Predicate: p, Object: BoolValue(true)}); err != nil {
		t.Fatal(err)
	}
	rest := g.appendMutationsSince(nil, g.LogFloor())
	if len(rest) != 1 || rest[0].Seq != wm+1 {
		t.Fatalf("post-truncation feed = %+v, want single entry at seq %d", rest, wm+1)
	}
}

func TestAdvanceWatermark(t *testing.T) {
	g := NewGraphWithShards(4)
	buildMutating(t, g, 20)
	low := g.LastSeq()

	// Rewinding must fail and change nothing.
	if err := g.AdvanceWatermark(low - 1); err == nil {
		t.Fatal("AdvanceWatermark below current watermark succeeded")
	}
	if g.LastSeq() != low {
		t.Fatalf("failed rewind moved the watermark to %d", g.LastSeq())
	}

	const target = 5000
	if err := g.AdvanceWatermark(target); err != nil {
		t.Fatalf("AdvanceWatermark(%d): %v", target, err)
	}
	if g.LastSeq() != target {
		t.Fatalf("LastSeq = %d, want %d", g.LastSeq(), target)
	}
	if g.LogFloor() != target {
		t.Fatalf("LogFloor = %d, want %d", g.LogFloor(), target)
	}
	if ms := g.appendMutationsSince(nil, 0); len(ms) != 0 {
		t.Fatalf("log retained %d entries across AdvanceWatermark", len(ms))
	}

	// The next mutation draws target+1, as if the process never restarted.
	id := mustEntity(t, g, "resumed", "resumed")
	p := mustPredicate(t, g, "next")
	if err := g.Assert(Triple{Subject: id, Predicate: p, Object: IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if g.LastSeq() != target+1 {
		t.Fatalf("post-advance mutation drew seq %d, want %d", g.LastSeq(), target+1)
	}
	ms := g.appendMutationsSince(nil, target)
	if len(ms) != 1 || ms[0].Seq != target+1 {
		t.Fatalf("MutationsSince(%d) = %+v", target, ms)
	}

	// Advancing to the current watermark is allowed (idempotent barrier).
	if err := g.AdvanceWatermark(g.LastSeq()); err != nil {
		t.Fatalf("AdvanceWatermark to current watermark: %v", err)
	}
}

func TestAllTriplesSnapshotMatchesAllTriples(t *testing.T) {
	g := NewGraphWithShards(4)
	buildMutating(t, g, 60)
	snap, wm := g.AllTriplesSnapshot()
	if wm != g.LastSeq() {
		t.Fatalf("snapshot watermark %d, graph watermark %d", wm, g.LastSeq())
	}
	plain := g.AllTriples()
	if len(snap) != len(plain) {
		t.Fatalf("snapshot has %d triples, AllTriples %d", len(snap), len(plain))
	}
	for i := range snap {
		if snap[i].IdentityKey() != plain[i].IdentityKey() {
			t.Fatalf("triple %d differs: %v vs %v", i, snap[i], plain[i])
		}
	}
	if g.NumTriples() != len(snap) {
		t.Fatalf("NumTriples %d, snapshot %d", g.NumTriples(), len(snap))
	}
}

// checkFeed requires muts to be the gapless run after+1, after+2, ...
func checkFeed(t *testing.T, what string, muts []Mutation, after uint64) {
	t.Helper()
	for i, m := range muts {
		if want := after + uint64(i) + 1; m.Seq != want {
			t.Fatalf("%s: entry %d has seq %d, want %d", what, i, m.Seq, want)
		}
	}
}

// The per-shard log is chunked: pulls, truncation and appends must all
// behave across chunk boundaries exactly as they do inside one chunk
// (the tests above never fill one).
func TestChunkedLogAcrossChunkBoundaries(t *testing.T) {
	g := NewGraphWithShards(2)
	// Keep the whole history in the chunks under test.
	g.Feed(0)
	buildMutating(t, g, 10*mutLogChunkCap) // 12 mutations per 10 steps: ~6 chunks a shard
	wm := g.LastSeq()
	for i := range g.shards {
		if n := len(g.shards[i].log.chunks); n < 4 {
			t.Fatalf("shard %d holds %d chunks; the test needs several", i, n)
		}
	}
	for _, from := range []uint64{0, 1, mutLogChunkCap - 1, mutLogChunkCap, 3*mutLogChunkCap + 7, wm - 1, wm} {
		muts := g.appendMutationsSince(nil, from)
		if uint64(len(muts)) != wm-from {
			t.Fatalf("MutationsSince(%d) has %d entries, want %d", from, len(muts), wm-from)
		}
		checkFeed(t, fmt.Sprintf("MutationsSince(%d)", from), muts, from)
	}

	// A cut inside a chunk trims it; whole chunks before it go.
	cut := uint64(2*mutLogChunkCap*len(g.shards) + 11)
	if dropped := g.TruncateLog(cut); uint64(dropped) != cut {
		t.Fatalf("TruncateLog(%d) dropped %d", cut, dropped)
	}
	checkFeed(t, "after truncation", g.appendMutationsSince(nil, cut), cut)
	if n := len(g.appendMutationsSince(nil, 0)); uint64(n) != wm-cut {
		t.Fatalf("a pull from below the floor has %d entries, want the %d retained", n, wm-cut)
	}
	// Appends continue in the trimmed log, and a reused, dirty destination
	// buffer comes back holding exactly the batch.
	p, _ := g.PredicateByName("score")
	e, _ := g.EntityByKey("c0")
	dst := g.appendMutationsSince(nil, cut)[:5] // stale entries beyond len are fair game
	for i := 0; i < 3*mutLogChunkCap; i++ {
		if err := g.Assert(Triple{Subject: e.ID, Predicate: p.ID, Object: IntValue(int64(1e6 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	feed := g.Feed(wm)
	got, complete := feed.PullAppend(dst)
	if !complete || len(got) != 5+3*mutLogChunkCap {
		t.Fatalf("PullAppend: complete=%v, %d entries", complete, len(got))
	}
	checkFeed(t, "PullAppend kept prefix", got[:5], cut)
	checkFeed(t, "PullAppend batch", got[5:], wm)
	if feed.Cursor() != g.LastSeq() {
		t.Fatalf("cursor %d, watermark %d", feed.Cursor(), g.LastSeq())
	}

	// A truncation caught half-way — one shard cut, the other not yet —
	// leaves holes below the floor. The pull must still come back
	// ascending with nothing invented in the gaps, into a dirty buffer too.
	half := g.LastSeq() - uint64(mutLogChunkCap)
	g.shards[0].log.dropThrough(half)
	holed := g.appendMutationsSince(got[:0], cut)
	if len(holed) == 0 || uint64(len(holed)) >= g.LastSeq()-cut {
		t.Fatalf("holed pull has %d entries", len(holed))
	}
	for i, m := range holed {
		if m.Seq <= cut || (i > 0 && m.Seq <= holed[i-1].Seq) {
			t.Fatalf("holed pull entry %d has seq %d after %d", i, m.Seq, holed[max(i-1, 0)].Seq)
		}
		if m.Seq <= half && g.shardIndex(m.T.Subject) == 0 {
			t.Fatalf("holed pull resurrected dropped entry %d", m.Seq)
		}
	}
}

// A consumer pulling across chunk boundaries beside a live writer and a
// truncator that keeps cutting just behind it — inside a chunk more
// often than not — always sees the gapless feed; a consumer left behind
// the floor is told so rather than handed a batch with holes.
func TestChunkedLogPullDuringTruncate(t *testing.T) {
	g := NewGraphWithShards(2)
	e := make([]EntityID, 8)
	for i := range e {
		e[i] = mustEntity(t, g, fmt.Sprintf("c%d", i), "")
	}
	p := mustPredicate(t, g, "score")
	const total = 40 * mutLogChunkCap
	var consumed atomic.Uint64
	// Open the feeds before the writer starts: with no feed open the log
	// keeps only a chunk a shard, and the floor would pass cursor 0.
	feed, lagging := g.Feed(0), g.Feed(0)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := g.Assert(Triple{Subject: e[i%len(e)], Predicate: p, Object: IntValue(int64(i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // truncator: never past what the consumer has taken
		defer wg.Done()
		for consumed.Load() < total {
			if c := consumed.Load(); c > 3 {
				g.TruncateLog(c - 3)
			}
			runtime.Gosched()
		}
	}()

	var buf []Mutation
	for feed.Cursor() < total {
		before := feed.Cursor()
		var complete bool
		buf, complete = feed.PullAppend(buf[:0])
		if !complete {
			t.Fatalf("consumer at %d fell behind floor %d though truncation trails it", before, g.LogFloor())
		}
		checkFeed(t, "live pull", buf, before)
		consumed.Store(feed.Cursor())
		if len(buf) > 0 && feed.Cursor()%7 == 0 {
			at := lagging.Cursor()
			if muts, complete := lagging.Pull(); complete {
				checkFeed(t, "lagging pull", muts, at)
			} else if muts != nil || lagging.Cursor() != at {
				t.Fatalf("incomplete pull returned %d entries, cursor %d -> %d", len(muts), at, lagging.Cursor())
			}
		}
	}
	wg.Wait()
}
