package kg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// shardFixture registers pool entities and one predicate on a graph with
// the given shard count.
func shardFixture(t testing.TB, shards, pool int) (*Graph, []EntityID, PredicateID) {
	t.Helper()
	g := NewGraphWithShards(shards)
	p, err := g.AddPredicate(Predicate{Name: "p"})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]EntityID, pool)
	for i := range ids {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return g, ids, p
}

func TestNewGraphWithShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {7, 8}, {8, 8}, {300, 256},
	} {
		if got := NewGraphWithShards(tc.in).NumShards(); got != tc.want {
			t.Errorf("NewGraphWithShards(%d).NumShards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if NewGraph().NumShards() < 1 {
		t.Fatal("default graph has no shards")
	}
}

// TestConcurrentShardHammer drives concurrent Assert/Retract across
// subjects spanning every shard while readers take TriplesSnapshot and
// MutationsSince cuts, then verifies the watermark contract end to end:
// replaying the full merged mutation log into a fresh graph reproduces
// exactly the final triple set, and each observed snapshot count is
// consistent with replaying its watermark prefix.
func TestConcurrentShardHammer(t *testing.T) {
	const (
		writers  = 8
		perW     = 300
		pool     = 64
		snapsPer = 40
	)
	g, ids, p := shardFixture(t, 8, pool)

	type snapObs struct {
		seq   uint64
		count int
	}
	var (
		wg       sync.WaitGroup
		obsMu    sync.Mutex
		observed []snapObs
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				tr := Triple{Subject: ids[rng.Intn(pool)], Predicate: p, Object: IntValue(int64(rng.Intn(200)))}
				if rng.Intn(3) == 0 {
					g.Retract(tr)
				} else if err := g.Assert(tr); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < snapsPer; i++ {
				n := 0
				seq := g.TriplesSnapshot(func(Triple) bool { n++; return true })
				obsMu.Lock()
				observed = append(observed, snapObs{seq: seq, count: n})
				obsMu.Unlock()
				_ = g.MutationsSince(seq / 2)
				_ = g.NumTriples()
				g.FactsFunc(ids[i%pool], p, func(Triple) bool { return true })
				g.OutgoingFunc(ids[i%pool], func(Triple) bool { return true })
			}
		}(r)
	}
	wg.Wait()

	muts := g.MutationsSince(0)
	if uint64(len(muts)) != g.LastSeq() {
		t.Fatalf("merged log has %d entries, watermark %d", len(muts), g.LastSeq())
	}
	for i, m := range muts {
		if m.Seq != uint64(i+1) {
			t.Fatalf("log entry %d has seq %d; merged feed must be dense and ascending", i, m.Seq)
		}
	}

	// Replay the full log into a single-shard graph: final states must match.
	replay := NewGraphWithShards(1)
	if _, err := replay.AddPredicate(Predicate{Name: "p"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pool; i++ {
		if _, err := replay.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[uint64]int, len(muts)) // watermark -> triple count, replayed
	live := 0
	for _, m := range muts {
		switch m.Op {
		case OpAssert:
			if err := replay.Assert(m.T); err != nil {
				t.Fatal(err)
			}
			live++
		case OpRetract:
			if !replay.Retract(m.T) {
				t.Fatalf("replay: retract of absent fact at seq %d", m.Seq)
			}
			live--
		}
		counts[m.Seq] = live
	}
	if got, want := replay.NumTriples(), g.NumTriples(); got != want {
		t.Fatalf("replayed graph has %d triples, original %d", got, want)
	}
	gotAll, wantAll := replay.AllTriples(), g.AllTriples()
	if len(gotAll) != len(wantAll) {
		t.Fatalf("replayed AllTriples len %d, original %d", len(gotAll), len(wantAll))
	}
	for i := range gotAll {
		if gotAll[i].IdentityKey() != wantAll[i].IdentityKey() {
			t.Fatalf("replayed triple %d = %v, original %v", i, gotAll[i], wantAll[i])
		}
	}
	// Every snapshot's (watermark, count) must match the replayed prefix.
	for _, o := range observed {
		want := 0
		if o.seq > 0 {
			want = counts[o.seq]
		}
		if o.count != want {
			t.Fatalf("snapshot at seq %d saw %d triples, replay says %d", o.seq, o.count, want)
		}
	}
}

// TestAssertBatchEquivalence checks the batch fast path against
// triple-by-triple assertion over randomized batches with in-batch and
// cross-batch duplicates: same final indexes, same added counts, same
// watermark.
func TestAssertBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		pool := 10 + rng.Intn(40)
		gBatch, ids, p := shardFixture(t, 1+rng.Intn(8), pool)
		gSeq, _, _ := shardFixture(t, 4, pool)
		p2b, _ := gBatch.AddPredicate(Predicate{Name: "q"})
		p2s, _ := gSeq.AddPredicate(Predicate{Name: "q"})
		if p2b != p2s {
			t.Fatal("fixture predicate IDs diverged")
		}
		preds := []PredicateID{p, p2b}

		var batch []Triple
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			var obj Value
			switch rng.Intn(3) {
			case 0:
				obj = IntValue(int64(rng.Intn(20)))
			case 1:
				obj = StringValue(fmt.Sprintf("s%d", rng.Intn(10)))
			default:
				obj = EntityValue(ids[rng.Intn(pool)])
			}
			batch = append(batch, Triple{Subject: ids[rng.Intn(pool)], Predicate: preds[rng.Intn(2)], Object: obj})
		}
		// Pre-assert a slice of the batch on both graphs so cross-batch
		// dedup is exercised too.
		for i := 0; i < len(batch)/4; i++ {
			if err := gBatch.Assert(batch[rng.Intn(len(batch))]); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range gBatch.MutationsSince(0) {
			if err := gSeq.Assert(m.T); err != nil {
				t.Fatal(err)
			}
		}

		addedBatch, err := gBatch.AssertBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		addedSeq := 0
		for _, tr := range batch {
			isNew, err := gSeq.AssertNew(tr)
			if err != nil {
				t.Fatal(err)
			}
			if isNew {
				addedSeq++
			}
		}
		if addedBatch != addedSeq {
			t.Fatalf("round %d: batch added %d, sequential added %d", round, addedBatch, addedSeq)
		}
		if gBatch.LastSeq() != gSeq.LastSeq() {
			t.Fatalf("round %d: watermark %d vs %d", round, gBatch.LastSeq(), gSeq.LastSeq())
		}
		a, b := gBatch.AllTriples(), gSeq.AllTriples()
		if len(a) != len(b) {
			t.Fatalf("round %d: %d vs %d triples", round, len(a), len(b))
		}
		for i := range a {
			if a[i].IdentityKey() != b[i].IdentityKey() {
				t.Fatalf("round %d: triple %d mismatch: %v vs %v", round, i, a[i], b[i])
			}
		}
		for _, pr := range preds {
			if gBatch.PredicateFrequency(pr) != gSeq.PredicateFrequency(pr) {
				t.Fatalf("round %d: predicate %v frequency mismatch", round, pr)
			}
		}
	}
}

func TestAssertBatchValidatesUpFront(t *testing.T) {
	g, ids, p := shardFixture(t, 4, 8)
	batch := []Triple{
		{Subject: ids[0], Predicate: p, Object: IntValue(1)},
		{Subject: EntityID(999), Predicate: p, Object: IntValue(2)}, // invalid
		{Subject: ids[1], Predicate: p, Object: IntValue(3)},
	}
	added, err := g.AssertBatch(batch)
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if added != 0 || g.NumTriples() != 0 || g.LastSeq() != 0 {
		t.Fatalf("failed batch partially applied: added=%d triples=%d seq=%d", added, g.NumTriples(), g.LastSeq())
	}
}

func TestAssertBatchFirstOccurrenceWins(t *testing.T) {
	g, ids, p := shardFixture(t, 4, 4)
	first := Triple{Subject: ids[0], Predicate: p, Object: IntValue(7), Prov: Provenance{Source: "first"}}
	second := first
	second.Prov.Source = "second"
	added, err := g.AssertBatch([]Triple{first, second})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	facts := g.Facts(ids[0], p)
	if len(facts) != 1 || facts[0].Prov.Source != "first" {
		t.Fatalf("stored facts = %+v; first input occurrence must win", facts)
	}
}

// TestEntityRecordCopyOnWrite verifies that SetPopularity and
// UpdateEntity never mutate a record a reader may already hold.
func TestEntityRecordCopyOnWrite(t *testing.T) {
	g := NewGraph()
	id, err := g.AddEntity(Entity{Key: "e", Name: "Old", Aliases: []string{"Old"}, Popularity: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	before := g.Entity(id)
	g.SetPopularity(id, 0.9)
	if before.Popularity != 0.1 {
		t.Fatalf("SetPopularity mutated a handed-out record: %v", before.Popularity)
	}
	if g.Entity(id).Popularity != 0.9 {
		t.Fatalf("SetPopularity not visible on re-read: %v", g.Entity(id).Popularity)
	}

	mid := g.Entity(id)
	ok := g.UpdateEntity(id, func(e *Entity) {
		e.Name = "New"
		e.Aliases = append(e.Aliases, "Extra")
		e.Key = "evil-rekey" // must be ignored
		e.ID = 999           // must be ignored
	})
	if !ok {
		t.Fatal("UpdateEntity reported unknown id")
	}
	if mid.Name != "Old" || len(mid.Aliases) != 1 {
		t.Fatalf("UpdateEntity mutated a handed-out record: %+v", mid)
	}
	after := g.Entity(id)
	if after.Name != "New" || len(after.Aliases) != 2 || after.Key != "e" || after.ID != id {
		t.Fatalf("UpdateEntity result wrong: %+v", after)
	}
	if got, ok := g.EntityByKey("e"); !ok || got != after {
		t.Fatal("EntityByKey lost the updated record")
	}
	if g.UpdateEntity(EntityID(4096), func(*Entity) {}) {
		t.Fatal("UpdateEntity accepted unknown id")
	}
	// Concurrent popularity writes against lock-free readers of handed-out
	// records: meaningful under -race.
	var wg sync.WaitGroup
	rec := g.Entity(id)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			g.SetPopularity(id, float64(i)/500)
		}
	}()
	go func() {
		defer wg.Done()
		s := 0.0
		for i := 0; i < 500; i++ {
			s += rec.Popularity + g.Entity(id).Popularity
		}
		_ = s
	}()
	wg.Wait()
}

// TestRetractNaNFloatFact pins index-identity agreement on the one value
// where bit identity and Value.Equal disagree: retracting a NaN-valued
// float fact must remove it from every index, and a re-assert must not
// leave a phantom duplicate in spo.
func TestRetractNaNFloatFact(t *testing.T) {
	g, ids, p := shardFixture(t, 4, 2)
	nan := FloatValue(math.NaN())
	tr := Triple{Subject: ids[0], Predicate: p, Object: nan}
	if err := g.Assert(tr); err != nil {
		t.Fatal(err)
	}
	if !g.Retract(tr) {
		t.Fatal("NaN fact not retracted")
	}
	if got := g.Facts(ids[0], p); len(got) != 0 {
		t.Fatalf("phantom triples in spo after NaN retract: %v", got)
	}
	if g.NumTriples() != 0 {
		t.Fatalf("NumTriples = %d after retract", g.NumTriples())
	}
	if err := g.Assert(tr); err != nil {
		t.Fatal(err)
	}
	if got := g.Facts(ids[0], p); len(got) != 1 {
		t.Fatalf("re-assert after NaN retract yielded %d facts, want 1", len(got))
	}
}

// TestMutationsSinceWatermark checks that MutationsSince delivers the
// exact ordered delta the watermark promises: after base, two more
// applied mutations yield exactly two entries covering (base, base+2].
func TestMutationsSinceWatermark(t *testing.T) {
	g, ids, p := shardFixture(t, 4, 16)
	for i := 0; i < 15; i++ {
		if err := g.Assert(Triple{Subject: ids[i], Predicate: p, Object: EntityValue(ids[i+1])}); err != nil {
			t.Fatal(err)
		}
	}
	base := g.LastSeq()
	if err := g.Assert(Triple{Subject: ids[0], Predicate: p, Object: EntityValue(ids[8])}); err != nil {
		t.Fatal(err)
	}
	g.Retract(Triple{Subject: ids[3], Predicate: p, Object: EntityValue(ids[4])})

	muts := g.MutationsSince(base)
	if len(muts) != 2 {
		t.Fatalf("MutationsSince delivered %d muts, want 2", len(muts))
	}
	if muts[0].Seq != base+1 || muts[1].Seq != base+2 {
		t.Fatalf("delta seqs %d,%d, want %d,%d", muts[0].Seq, muts[1].Seq, base+1, base+2)
	}
	if muts[0].Op != OpAssert || muts[1].Op != OpRetract {
		t.Fatalf("delta ops %v,%v, want assert,retract", muts[0].Op, muts[1].Op)
	}
	if g.LastSeq() != base+2 {
		t.Fatalf("watermark %d, want %d", g.LastSeq(), base+2)
	}
}
