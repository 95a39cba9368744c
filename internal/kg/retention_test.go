package kg

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// retentionFeed is the model's view of one open feed: its cursor, its
// bound (0 for none), and whether the floor may lawfully have passed it
// — it was opened or Reset below the floor, a TruncateLog call passed
// it, or it lagged past its bound. Retention alone never passes an open
// feed within its bound.
type retentionFeed struct {
	f      *Changefeed
	cursor uint64
	maxLag uint64
	passed bool
}

// FuzzLogRetention checks the mutation log's retention against a
// reference model: a plain slice of every mutation the graph applied.
// Each input byte pair is one op — open a feed at 0, at LastSeq() or at
// a random seq, the first of them bounded at an odd lag; Pull, Reset or
// Close one; Assert, Retract (a few facts), AssertBatch; TruncateLog.
// After every op:
//
//   - every open feed not lawfully passed has its cursor at or above
//     LogFloor(), and every feed with its cursor at or above the floor
//     reads exactly the reference suffix past it;
//   - the log holds no more than the reference entries above the
//     smallest open cursor plus one chunk per shard.
//
// A goroutine beside the ops opens, pulls and closes feeds of its own
// and reads the log with no feed held, so the registry and the
// floor-before-drop ordering are exercised under concurrency: a feed
// registered at or above the floor must pull complete and gapless, and
// a pull the floor check accepts must have no hole.
func FuzzLogRetention(f *testing.F) {
	// Byte 0 picks the shard count; then (op, arg) pairs, op = byte % 10:
	// 0/1/2 open a feed at 0 (bounded at arg when arg is odd) /
	// LastSeq() / a seq, 3 Pull, 4 Reset, 5 Close, 6 Assert, 7 Retract,
	// 8 AssertBatch, 9 TruncateLog.
	f.Add([]byte{1, 0, 0, 8, 63, 8, 63, 3, 0, 8, 63, 6, 1, 7, 2, 9, 100, 3, 0, 5, 0, 8, 63})
	f.Add([]byte{2, 1, 0, 8, 63, 8, 63, 8, 63, 0, 0, 8, 63, 3, 1, 4, 0, 3, 0, 9, 255, 3, 0, 5, 1, 5, 0, 8, 63, 8, 63})
	f.Add([]byte{3, 2, 200, 8, 63, 8, 63, 8, 63, 2, 100, 3, 0, 3, 1, 3, 2, 4, 77, 8, 63, 8, 63, 5, 2, 5, 1, 8, 63, 3, 0, 5, 0, 8, 63})
	f.Add([]byte{0, 8, 63, 8, 63, 8, 63, 8, 63, 8, 63, 8, 63, 9, 128, 9, 255, 8, 63, 8, 63, 8, 63, 0, 0, 3, 0, 9, 255, 8, 63, 8, 63, 3, 0, 5, 0})
	f.Add(func() []byte {
		b := []byte{2}
		for i := byte(0); i < 60; i++ {
			b = append(b, 8, 63, 7, 15+i, 6, i, 9, 7*i)
			if i%5 == 0 {
				b = append(b, i%6, i, 3, i)
			}
		}
		return b
	}())
	f.Add([]byte{2, 0, 101, 8, 63, 8, 63, 3, 0, 8, 63, 8, 63, 8, 63, 3, 0, 0, 9, 8, 63, 3, 1, 8, 63, 8, 63, 3, 1, 4, 255, 8, 63, 3, 0, 5, 0, 8, 63})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 || len(ops) > 800 {
			return
		}
		g := NewGraphWithShards(1 << (ops[0] % 4))
		ents := make([]EntityID, 12)
		for i := range ents {
			ents[i] = mustEntity(t, g, fmt.Sprintf("e%d", i), "")
		}
		pred := mustPredicate(t, g, "p")
		fact := func(b byte, i int) Triple {
			x := int(b) + 31*i
			return Triple{Subject: ents[x%len(ents)], Predicate: pred, Object: IntValue(int64(x / len(ents) % 97))}
		}

		var (
			ref   []Mutation // ref[i] has Seq i+1
			facts = map[TripleKey]bool{}
			feeds []*retentionFeed
		)
		logged := func(op MutationOp, t Triple) {
			ref = append(ref, Mutation{Seq: uint64(len(ref) + 1), Op: op, T: t})
		}
		seqOf := func(b byte) uint64 { return uint64(b) * uint64(len(ref)) / 255 }
		pick := func(b byte) int { return int(b) % len(feeds) }

		// The concurrent reader. truncations counts TruncateLog calls, so
		// it can tell a lawful pass from a retention bug; pause keeps its
		// feeds closed while the main loop checks the retention bound.
		var (
			truncations atomic.Int64
			stop        atomic.Bool
			pause       sync.RWMutex
			wg          sync.WaitGroup
			bad         atomic.Pointer[string]
		)
		fail := func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			bad.CompareAndSwap(nil, &msg)
		}
		gapless := func(muts []Mutation, from uint64) bool {
			for i := range muts {
				if muts[i].Seq != from+1+uint64(i) {
					return false
				}
			}
			return true
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				pause.RLock()
				tr := truncations.Load()
				bf := g.Feed(g.LastSeq())
				c := bf.Cursor()
				if c >= g.LogFloor() {
					muts, ok := bf.Pull()
					if truncations.Load() == tr {
						if !ok {
							fail("a feed registered at %d above the floor pulled incomplete (floor %d)", c, g.LogFloor())
						} else if !gapless(muts, c) {
							fail("a feed registered at %d pulled a batch with a hole", c)
						}
					}
				}
				bf.Close()
				// No feed held: a pull the floor check accepts is whole.
				from := g.LogFloor()
				muts := g.appendMutationsSince(nil, from)
				if g.LogFloor() <= from && !gapless(muts, from) {
					fail("a pull from %d passed the floor check with a hole", from)
				}
				pause.RUnlock()
			}
		}()
		defer func() {
			stop.Store(true)
			wg.Wait()
		}()

		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%10, ops[i+1]
			switch op {
			case 0, 1, 2:
				if len(feeds) == 8 {
					continue
				}
				c := uint64(0)
				switch op {
				case 1:
					c = g.LastSeq()
				case 2:
					c = seqOf(arg)
				}
				rf := &retentionFeed{f: g.Feed(c), cursor: c, passed: c < g.LogFloor()}
				if op == 0 && arg%2 == 1 {
					rf.maxLag = uint64(arg)
					rf.f.Bound(rf.maxLag)
				}
				feeds = append(feeds, rf)
			case 3:
				if len(feeds) == 0 {
					continue
				}
				rf := feeds[pick(arg)]
				muts, ok := rf.f.Pull()
				if !ok {
					if !rf.passed {
						t.Fatalf("op %d: feed at %d pulled incomplete though nothing passed it (floor %d)", i, rf.cursor, g.LogFloor())
					}
					continue
				}
				if want := ref[rf.cursor:]; !slices.Equal(muts, want) {
					t.Fatalf("op %d: pull from %d returned %d mutations, want %d\n got %v\nwant %v", i, rf.cursor, len(muts), len(want), muts, want)
				}
				rf.cursor, rf.passed = uint64(len(ref)), false
				if rf.f.Cursor() != rf.cursor {
					t.Fatalf("op %d: cursor %d after a complete pull, want %d", i, rf.f.Cursor(), rf.cursor)
				}
			case 4:
				if len(feeds) == 0 {
					continue
				}
				rf := feeds[pick(arg)]
				rf.cursor = seqOf(arg)
				rf.f.Reset(rf.cursor)
				rf.passed = rf.cursor < g.LogFloor()
			case 5:
				if len(feeds) == 0 {
					continue
				}
				j := pick(arg)
				feeds[j].f.Close()
				feeds = slices.Delete(feeds, j, j+1)
			case 6:
				tr := fact(arg, i)
				if err := g.Assert(tr); err != nil {
					t.Fatal(err)
				}
				if k := tr.IdentityKey(); !facts[k] {
					facts[k] = true
					logged(OpAssert, tr)
				}
			case 7:
				for j := 0; j <= int(arg)%16; j++ {
					tr := fact(arg+byte(j), i+j)
					g.Retract(tr)
					if k := tr.IdentityKey(); facts[k] {
						delete(facts, k)
						logged(OpRetract, tr)
					}
				}
			case 8:
				batch := make([]Triple, int(arg)%64+1)
				for j := range batch {
					batch[j] = fact(arg+byte(j), i+j)
				}
				if _, err := g.AssertBatch(batch); err != nil {
					t.Fatal(err)
				}
				// AssertBatch applies in identity order, skipping facts held.
				slices.SortStableFunc(batch, func(a, b Triple) int { return a.IdentityKey().Compare(b.IdentityKey()) })
				for _, tr := range batch {
					if k := tr.IdentityKey(); !facts[k] {
						facts[k] = true
						logged(OpAssert, tr)
					}
				}
			case 9:
				upTo := seqOf(arg)
				truncations.Add(1)
				func() {
					pause.Lock() // nothing else drops while the call is watched
					defer pause.Unlock()
					truncatePartway(t, g, upTo)
				}()
				for _, rf := range feeds {
					if rf.cursor < upTo {
						rf.passed = true
					}
				}
			}

			if g.LastSeq() != uint64(len(ref)) {
				t.Fatalf("op %d: watermark %d, reference holds %d mutations", i, g.LastSeq(), len(ref))
			}
			keep := uint64(len(ref))
			for _, rf := range feeds {
				keep = min(keep, rf.cursor)
				if rf.maxLag > 0 && rf.cursor+rf.maxLag < g.LastSeq() {
					rf.passed = true
				}
				// The floor is read after the pull: the reader's Close may
				// trim meanwhile, past a feed that lags past its bound.
				got := g.appendMutationsSince(nil, rf.cursor)
				floor := g.LogFloor()
				if !rf.passed && rf.cursor < floor {
					t.Fatalf("op %d: floor %d passed the open feed at %d", i, floor, rf.cursor)
				}
				if rf.cursor < floor {
					continue
				}
				if want := ref[rf.cursor:]; !slices.Equal(got, want) {
					t.Fatalf("op %d: the feed at %d reads %d mutations, the reference %d", i, rf.cursor, len(got), len(want))
				}
			}
			pause.Lock()
			held, above := g.LogEntries(), len(ref)-int(keep)
			pause.Unlock()
			if held > above+g.NumShards()*mutLogChunkCap {
				t.Fatalf("op %d: the log holds %d entries; %d lie above the smallest open cursor %d (%d shards)", i, held, above, keep, g.NumShards())
			}
			if msg := bad.Load(); msg != nil {
				t.Fatal(*msg)
			}
		}
	})
}

// truncatePartway runs TruncateLog(upTo) with the last shard read-locked,
// so the call stops partway, and checks that once it has compacted the
// first shard the floor already covers upTo: the floor is raised before
// any entry is dropped. It truncates plainly when the first shard holds
// nothing to drop or is the last one.
func truncatePartway(t *testing.T, g *Graph, upTo uint64) {
	upTo = min(upTo, g.LastSeq())
	last, first := &g.shards[len(g.shards)-1], &g.shards[0]
	holds := func() bool {
		first.mu.RLock()
		defer first.mu.RUnlock()
		return len(first.log.chunks) > 0 && first.log.chunks[0][0].seq <= upTo
	}
	if first == last || !holds() {
		g.TruncateLog(upTo)
		return
	}
	last.mu.RLock()
	done := make(chan struct{})
	go func() {
		g.TruncateLog(upTo)
		close(done)
	}()
	for holds() {
		runtime.Gosched()
	}
	floor := g.LogFloor()
	last.mu.RUnlock()
	<-done
	if floor < upTo {
		t.Fatalf("TruncateLog(%d) dropped entries with the floor still at %d", upTo, floor)
	}
}

// TestBoundedFeedReleasesTheLog checks Bound: a bounded feed holds the
// log while it lags within its bound; past it, the log keeps nothing for
// the feed and the feed's next Pull comes back incomplete. Reset and
// Bound(0) make it hold the log again.
func TestBoundedFeedReleasesTheLog(t *testing.T) {
	g := NewGraphWithShards(1)
	s := mustEntity(t, g, "s", "")
	pred := mustPredicate(t, g, "p")
	assertN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := g.Assert(Triple{Subject: s, Predicate: pred, Object: IntValue(int64(g.LastSeq()))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const bound = 200
	f := g.Feed(g.LastSeq())
	defer f.Close()
	f.Bound(bound)
	assertN(bound)
	if muts, ok := f.Pull(); !ok || len(muts) != bound {
		t.Fatalf("a feed within its bound pulled %d mutations, complete=%v; want %d, complete", len(muts), ok, bound)
	}
	// Past the bound, and far enough for a chunk to fill after it.
	assertN(bound + 1 + mutLogChunkCap)
	if n := g.LogEntries(); n > mutLogChunkCap {
		t.Fatalf("the log holds %d entries for a feed past its bound", n)
	}
	if _, ok := f.Pull(); ok {
		t.Fatalf("a feed past its bound pulled complete with the floor at %d", g.LogFloor())
	}
	f.Reset(g.LastSeq())
	f.Bound(0)
	assertN(3 * bound)
	if muts, ok := f.Pull(); !ok || len(muts) != 3*bound {
		t.Fatalf("an unbounded feed pulled %d mutations, complete=%v; want %d, complete", len(muts), ok, 3*bound)
	}
}
