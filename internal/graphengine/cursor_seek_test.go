package graphengine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"saga/internal/kg"
)

// A resumed page seeks to its cursor instead of replaying the stream up
// to it. These tests pin what that must not change: cursor pages,
// concatenated, are the unlimited stream — on every read surface the
// executor runs over — a cursor whose row is gone resumes at that row's
// successor, and no stream ever repeats a row, writer or no writer.

const (
	seekEnts  = 40
	seekPreds = 3
)

// seekWorld registers the fixed dictionary every replica of a history
// shares, so replayed graphs assign identical IDs.
func seekWorld(t testing.TB) (*kg.Graph, []kg.EntityID, []kg.PredicateID) {
	t.Helper()
	g := kg.NewGraph()
	g.Feed(0) // keep the whole history: the tests replay it
	ents := make([]kg.EntityID, seekEnts)
	for i := range ents {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = id
	}
	preds := make([]kg.PredicateID, seekPreds)
	for i := range preds {
		id, err := g.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = id
	}
	return g, ents, preds
}

// seekTriple draws a random fact; a quarter of the objects are literals
// from a small domain, and subjects are skewed so some fact lists and
// postings are long.
func seekTriple(rng *rand.Rand, ents []kg.EntityID, preds []kg.PredicateID) kg.Triple {
	pick := func() kg.EntityID {
		if rng.Intn(3) == 0 {
			return ents[rng.Intn(4)]
		}
		return ents[rng.Intn(len(ents))]
	}
	tr := kg.Triple{Subject: pick(), Predicate: preds[rng.Intn(len(preds))]}
	switch rng.Intn(8) {
	case 0:
		tr.Object = kg.StringValue(fmt.Sprintf("s%d", rng.Intn(3)))
	case 1:
		tr.Object = kg.IntValue(int64(rng.Intn(3)))
	default:
		tr.Object = kg.EntityValue(pick())
	}
	return tr
}

// seekHistory applies steps random asserts and retracts to g.
func seekHistory(t testing.TB, g *kg.Graph, rng *rand.Rand, ents []kg.EntityID, preds []kg.PredicateID, steps int) {
	t.Helper()
	var live []kg.Triple
	for i := 0; i < steps; i++ {
		if len(live) > 8 && rng.Intn(5) == 0 {
			j := rng.Intn(len(live))
			if !g.Retract(live[j]) {
				t.Fatalf("retract of live triple failed: %v", live[j])
			}
			live = slices.Delete(live, j, j+1)
			continue
		}
		tr := seekTriple(rng, ents, preds)
		added, err := g.AssertNew(tr)
		if err != nil {
			t.Fatal(err)
		}
		if added {
			live = append(live, tr)
		}
	}
}

// seekQueries covers every access path and the join shapes between them:
// scans, postings, fact lists, membership probes, literals, a repeated
// variable, and a clause with no variables at all.
func seekQueries(ents []kg.EntityID, preds []kg.PredicateID) [][]Clause {
	return [][]Clause{
		{{Subject: V("x"), Predicate: preds[0], Object: V("y")}},
		{{Subject: V("x"), Predicate: preds[1], Object: CE(ents[1])}},
		{{Subject: CE(ents[0]), Predicate: preds[2], Object: V("y")}},
		{{Subject: V("x"), Predicate: preds[0], Object: V("x")}},
		{{Subject: V("x"), Predicate: preds[1], Object: C(kg.StringValue("s1"))}},
		{
			{Subject: V("x"), Predicate: preds[0], Object: V("y")},
			{Subject: V("y"), Predicate: preds[1], Object: V("z")},
		},
		{
			{Subject: V("x"), Predicate: preds[0], Object: CE(ents[2])},
			{Subject: V("x"), Predicate: preds[1], Object: V("y")},
		},
		{
			{Subject: V("x"), Predicate: preds[0], Object: V("y")},
			{Subject: V("x"), Predicate: preds[2], Object: V("y")},
		},
		{
			{Subject: V("a"), Predicate: preds[0], Object: V("b")},
			{Subject: V("b"), Predicate: preds[1], Object: V("c")},
			{Subject: V("c"), Predicate: preds[2], Object: V("a")},
		},
		{
			{Subject: CE(ents[0]), Predicate: preds[0], Object: V("y")},
			{Subject: CE(ents[1]), Predicate: preds[1], Object: CE(ents[2])},
		},
	}
}

// TestCursorPagesConcatenateToStream: for random histories, every query
// shape and several page sizes, walking cursor pages to exhaustion yields
// exactly the unlimited stream — over the live graph, an as-of overlay
// and a derived union view.
func TestCursorPagesConcatenateToStream(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			live, ents, preds := seekWorld(t)
			seekHistory(t, live, rng, ents, preds, 600)

			// Overlay: the first half of the history as a replayed base,
			// the second half as the suffix — the same state as live.
			muts, complete := live.Feed(0).Pull()
			if !complete || len(muts) == 0 {
				t.Fatalf("history unavailable: %d muts, complete=%v", len(muts), complete)
			}
			base, _, _ := seekWorld(t)
			for _, mu := range muts[:len(muts)/2] {
				switch mu.Op {
				case kg.OpAssert:
					if _, err := base.AssertNew(mu.T); err != nil {
						t.Fatal(err)
					}
				case kg.OpRetract:
					base.Retract(mu.T)
				}
			}
			overlay := NewOverlay(base, muts[len(muts)/2:])

			// Derived view: the last predicate also carries derived facts,
			// some of them shadowed by base facts.
			set := NewFactSet()
			for i := 0; i < 60; i++ {
				tr := seekTriple(rng, ents, preds)
				tr.Predicate = preds[2]
				set.Insert(tr)
			}
			derived := Union(live, set)

			surfaces := []struct {
				name string
				g    conjGraph
			}{{"live", live}, {"overlay", overlay}, {"derived", derived}}
			for _, sf := range surfaces {
				for qi, q := range seekQueries(ents, preds) {
					want := streamTokens(t, streamConjunctive(sf.g, q, QueryOptions{}))
					for _, pageSize := range []int{2, 9} {
						label := fmt.Sprintf("%s q=%d page=%d", sf.name, qi, pageSize)
						var got []string
						var cursor []kg.ValueKey
						for {
							n := 0
							for b, err := range streamConjunctive(sf.g, q, QueryOptions{Limit: pageSize, Cursor: cursor}) {
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								got = append(got, bindingToken(b))
								cursor = BindingKey(b)
								n++
							}
							if n < pageSize || len(got) > len(want) {
								break
							}
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s: %d paged rows vs %d streamed; pages diverge from the stream\npaged:  %v\nstream: %v", label, len(got), len(want), got, want)
						}
					}
				}
			}
		})
	}
}

// A cursor naming a row that has since been retracted resumes at that
// row's successor: a client paging beside a writer sees every later row,
// not a clean end-of-results with rows missing. The row can vanish at any
// join depth — its first-step candidate gone, or only a deeper clause.
func TestCursorVanishedRowResumesAtSuccessor(t *testing.T) {
	const nMembers = 40
	for _, depth := range []int{0, 1} {
		g, clauses := streamFixture(t, nMembers)
		all := streamTokens(t, streamConjunctive(g, clauses, QueryOptions{}))
		var last Binding
		for b, err := range streamConjunctive(g, clauses, QueryOptions{Limit: 10}) {
			if err != nil {
				t.Fatal(err)
			}
			last = b
		}
		c := clauses[depth]
		if !g.Retract(kg.Triple{Subject: last["p"].Entity, Predicate: c.Predicate, Object: c.Object.Const}) {
			t.Fatal("retract under the cursor row failed")
		}
		got := streamTokens(t, streamConjunctive(g, clauses, QueryOptions{Cursor: BindingKey(last)}))
		if !slices.Equal(got, all[10:]) {
			t.Fatalf("clause %d retracted: resumed stream = %d rows, want the %d after the vanished cursor row", depth, len(got), len(all)-10)
		}
	}
}

// TestNoDuplicateRowsUnderConcurrentWrites gates the executor's missing
// seen-set: with a writer splicing the very fact lists and postings the
// reader is walking, no stream over the live graph or a derived union
// view (whose base facts shadow and unshadow derived ones mid-read) may
// yield the same row twice, on any query shape. An as-of overlay cannot
// be raced — its base is immutable — and is held to the same property.
func TestNoDuplicateRowsUnderConcurrentWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	live, ents, preds := seekWorld(t)
	seekHistory(t, live, rng, ents, preds, 600)

	// The pre-race state, for the overlay below.
	base, _, _ := seekWorld(t)
	snapshot, wm := live.AllTriplesSnapshot()
	if _, err := base.AssertBatch(snapshot); err != nil {
		t.Fatal(err)
	}
	set := NewFactSet()
	for i := 0; i < 80; i++ {
		tr := seekTriple(rng, ents, preds)
		tr.Predicate = preds[2]
		set.Insert(tr)
	}

	var (
		stop   atomic.Bool
		writes atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(8))
		for !stop.Load() {
			tr := seekTriple(wrng, ents, preds)
			if !live.Retract(tr) {
				if err := live.Assert(tr); err != nil {
					t.Error(err)
					return
				}
			}
			writes.Add(1)
		}
	}()

	noDups := func(label string, g conjGraph, q []Clause) {
		seen := make(map[string]bool)
		for b, err := range streamConjunctive(g, q, QueryOptions{}) {
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			tok := bindingToken(b)
			if seen[tok] {
				t.Fatalf("%s: row %v streamed twice", label, b)
			}
			seen[tok] = true
		}
	}
	derived := Union(live, set)
	queries := seekQueries(ents, preds)
	for round := 0; round < 4 || writes.Load() < 500; round++ {
		for qi, q := range queries {
			noDups(fmt.Sprintf("live round=%d q=%d", round, qi), live, q)
			noDups(fmt.Sprintf("derived round=%d q=%d", round, qi), derived, q)
		}
	}
	stop.Store(true)
	wg.Wait()

	// The overlay: everything the writer did since the snapshot, as a
	// suffix over the pre-race state.
	suffix, complete := live.Feed(wm).Pull()
	if !complete {
		t.Fatal("suffix unavailable")
	}
	overlay := NewOverlay(base, suffix)
	for qi, q := range queries {
		noDups(fmt.Sprintf("overlay q=%d", qi), overlay, q)
	}
}

// FuzzDecodeCursor: no token makes the decoder panic or over-allocate,
// and whatever it accepts re-encodes to a token that decodes to the same
// tuple (the wire format has exactly one reading).
func FuzzDecodeCursor(f *testing.F) {
	f.Add("")
	f.Add("AA")
	f.Add("!!!")
	f.Add(EncodeCursor(nil))
	f.Add(EncodeCursor([]kg.ValueKey{kg.EntityValue(7).MapKey()}))
	f.Add(EncodeCursor([]kg.ValueKey{kg.StringValue("a\x00b").MapKey(), kg.IntValue(-1).MapKey(), kg.StringValue("").MapKey()}))
	f.Add(EncodeCursor([]kg.ValueKey{{Kind: kg.KindFloat, Num: -1}}))
	f.Add("_w8") // a count far beyond the bytes that follow
	f.Fuzz(func(t *testing.T, token string) {
		keys, err := DecodeCursor(token)
		if err != nil {
			return
		}
		again, err := DecodeCursor(EncodeCursor(keys))
		if err != nil {
			t.Fatalf("re-encoded cursor rejected: %v", err)
		}
		if !slices.Equal(keys, again) {
			t.Fatalf("cursor did not round-trip: %v vs %v", keys, again)
		}
	})
}
