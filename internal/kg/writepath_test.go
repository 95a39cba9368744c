package kg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// The merge-append AssertBatch fast path (identity-sorted input detected
// in O(n) instead of comparison-sorted) must be
// semantically identical to the general sorted path: same facts, same
// added count, same index contents.
func TestAssertBatchSortedEquivalence(t *testing.T) {
	f := func(ops []uint32) bool {
		const nEnts = 12
		const nPreds = 4
		mk := func() (*Graph, []EntityID, []PredicateID, []Value) {
			g := NewGraph()
			ents := make([]EntityID, nEnts)
			for i := range ents {
				id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				ents[i] = id
			}
			preds := make([]PredicateID, nPreds)
			for i := range preds {
				id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				preds[i] = id
			}
			return g, ents, preds, pomTestObjects(ents)
		}
		gSorted, ents, preds, objs := mk()
		gShuffled, _, _, _ := mk()

		batch := make([]Triple, 0, len(ops))
		for _, op := range ops {
			batch = append(batch, Triple{
				Subject:   ents[int(op)%nEnts],
				Predicate: preds[int(op>>4)%nPreds],
				Object:    objs[int(op>>8)%len(objs)],
			})
		}
		sorted := append([]Triple(nil), batch...)
		sortTriplesByIdentity(sorted)
		shuffled := append([]Triple(nil), batch...)
		rand.New(rand.NewSource(int64(len(ops)))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})

		addedSorted, err := gSorted.AssertBatch(sorted)
		if err != nil {
			return false
		}
		addedShuffled, err := gShuffled.AssertBatch(shuffled)
		if err != nil {
			return false
		}
		if addedSorted != addedShuffled {
			t.Fatalf("added: sorted path %d vs general path %d", addedSorted, addedShuffled)
		}
		a, b := gSorted.AllTriples(), gShuffled.AllTriples()
		if len(a) != len(b) {
			t.Fatalf("AllTriples: %d vs %d triples", len(a), len(b))
		}
		for i := range a {
			if a[i].IdentityKey() != b[i].IdentityKey() {
				t.Fatalf("AllTriples[%d]: %v vs %v", i, a[i], b[i])
			}
		}
		checkPomAgainstSweep(t, gSorted, preds, objs)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sortTriplesByIdentity(ts []Triple) {
	keys := make([]TripleKey, len(ts))
	for i := range ts {
		keys[i] = ts[i].IdentityKey()
	}
	// Insertion sort on precomputed keys: fine for test-sized batches and
	// stable, so in-batch duplicates keep their input order.
	for i := 1; i < len(ts); i++ {
		tv, kv := ts[i], keys[i]
		j := i - 1
		for j >= 0 && keys[j].Compare(kv) > 0 {
			ts[j+1], keys[j+1] = ts[j], keys[j]
			j--
		}
		ts[j+1], keys[j+1] = tv, kv
	}
}

// On the merge-append path, the first occurrence of an in-batch duplicate
// identity must win (same provenance contract as the sorting path).
func TestAssertBatchSortedFirstWins(t *testing.T) {
	g := NewGraph()
	a, err := g.AddEntity(Entity{Key: "a"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.AddPredicate(Predicate{Name: "p"})
	if err != nil {
		t.Fatal(err)
	}
	first := Triple{Subject: a, Predicate: p, Object: IntValue(7), Prov: Provenance{Source: "first"}}
	dup := first
	dup.Prov.Source = "second"
	added, err := g.AssertBatch([]Triple{first, dup}) // equal keys: sorted input
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	facts := g.Facts(a, p)
	if len(facts) != 1 || facts[0].Prov.Source != "first" {
		t.Fatalf("facts = %+v, want single fact with Source=first", facts)
	}
}
