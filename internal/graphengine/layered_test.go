package graphengine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"saga/internal/kg"
)

// One contract for the layered view, in both shapes it is used in: it
// must read exactly like a plain kg.Graph holding (base ∖ dels) ∪ adds —
// every accessor in the same order, every query the same rows, cursor
// pages that concatenate to the stream. Only the counts may differ, and
// only in the derived shape, where a fact held by both the base and adds
// is counted twice.

// layeredCase is one configuration: the view under test, the flat graph
// it must read like, and how far its counts may exceed the flat graph's
// (the facts adds shares with the base).
type layeredCase struct {
	name    string
	view    *Overlay
	flat    *kg.Graph
	overlap func(match func(kg.Triple) bool) int
}

func layeredCases(t *testing.T) ([]layeredCase, []kg.EntityID, []kg.PredicateID) {
	src, ents, preds := newOverlayWorld(t)
	mutateOverlayWorld(t, src, rand.New(rand.NewSource(11)), 500)
	muts, complete := src.Feed(0).Pull()
	if !complete {
		t.Fatal("source history unavailable")
	}

	// As-of: a third of the history as the base, the rest as the suffix —
	// retracts of base facts, re-asserts of retracted ones, adds.
	asOf := layeredCase{
		name:    "as-of",
		view:    mustOverlay(t, src, replayMuts(t, muts[:len(muts)/3]), muts[len(muts)/3:]),
		flat:    replayMuts(t, muts),
		overlap: func(func(kg.Triple) bool) int { return 0 },
	}
	if asOf.view.dels.NumTriples() == 0 || asOf.view.adds.NumTriples() == 0 {
		t.Fatal("history too tame: the suffix removed or added nothing")
	}

	// Derived: the live graph plus a graph of facts on the last predicate,
	// every third one also asserted in the base — whose copy must win the
	// enumeration, not double it.
	base, flat := replayMuts(t, muts), replayMuts(t, muts)
	adds := kg.NewGraphOver(base)
	var shared []kg.Triple
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		tr := kg.Triple{Subject: ents[rng.Intn(len(ents))], Predicate: preds[len(preds)-1], Object: overlayObject(rng, ents)}
		if err := adds.Assert(tr); err != nil {
			t.Fatal(err)
		}
		if _, err := flat.AssertNew(tr); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := base.Assert(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tr := range entries(adds, preds[len(preds)-1]) {
		if base.HasFact(tr.Subject, tr.Predicate, tr.Object) {
			shared = append(shared, tr)
		}
	}
	if len(shared) == 0 {
		t.Fatal("no derived fact is also a base fact")
	}
	derived := layeredCase{
		name: "derived",
		view: Union(base, adds),
		flat: flat,
		overlap: func(match func(kg.Triple) bool) int {
			n := 0
			for _, tr := range shared {
				if match(tr) {
					n++
				}
			}
			return n
		},
	}
	return []layeredCase{asOf, derived}, ents, preds
}

func TestLayeredViewReadsLikeFlatGraph(t *testing.T) {
	cases, ents, preds := layeredCases(t)
	objects := make([]kg.Value, 0, len(ents)+8)
	for _, e := range ents {
		objects = append(objects, kg.EntityValue(e))
	}
	for i := 0; i < 4; i++ {
		objects = append(objects, kg.StringValue(fmt.Sprintf("s%d", i)), kg.IntValue(int64(i)))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, flat := tc.view, tc.flat
			for _, p := range preds {
				if got, want := v.PredicateFrequency(p), flat.PredicateFrequency(p)+tc.overlap(func(tr kg.Triple) bool { return tr.Predicate == p }); got != want {
					t.Fatalf("PredicateFrequency(%d) = %d, want %d", p, got, want)
				}
				for _, s := range ents {
					if got, want := v.FactCount(s, p), flat.FactCount(s, p)+tc.overlap(func(tr kg.Triple) bool { return tr.Subject == s && tr.Predicate == p }); got != want {
						t.Fatalf("FactCount(%d,%d) = %d, want %d", s, p, got, want)
					}
					for _, chunk := range []int{1, 3, 1024} {
						var got, want []kg.TripleKey
						v.FactsChunked(s, p, chunk, func(c []kg.Triple) bool {
							for _, tr := range c {
								got = append(got, tr.IdentityKey())
							}
							return true
						})
						flat.FactsChunked(s, p, chunk, func(c []kg.Triple) bool {
							for _, tr := range c {
								want = append(want, tr.IdentityKey())
							}
							return true
						})
						if !slices.Equal(got, want) {
							t.Fatalf("FactsChunked(%d,%d) chunk=%d: %v, want %v", s, p, chunk, got, want)
						}
					}
				}
				for _, o := range objects {
					if got, want := v.SubjectsWithCount(p, o), flat.SubjectsWithCount(p, o)+tc.overlap(func(tr kg.Triple) bool { return tr.Predicate == p && tr.Object.MapKey() == o.MapKey() }); got != want {
						t.Fatalf("SubjectsWithCount(%d,%v) = %d, want %d", p, o, got, want)
					}
					// From the start, and resumed after a key in the middle.
					for _, after := range []kg.EntityID{kg.NoEntity, ents[len(ents)/2]} {
						var got, want []kg.EntityID
						v.SubjectsWithChunked(p, o, after, 3, func(c []kg.EntityID) bool { got = append(got, c...); return true })
						flat.SubjectsWithChunked(p, o, after, 3, func(c []kg.EntityID) bool { want = append(want, c...); return true })
						if !slices.Equal(got, want) {
							t.Fatalf("SubjectsWithChunked(%d,%v) after %d: %v, want %v", p, o, after, got, want)
						}
					}
					for _, s := range ents {
						if got, want := v.HasFact(s, p, o), flat.HasFact(s, p, o); got != want {
							t.Fatalf("HasFact(%d,%d,%v) = %v, want %v", s, p, o, got, want)
						}
					}
				}
				// The scan is unordered and may repeat a shared fact; what
				// the executor makes of it must be the flat graph's scan.
				if got, want := scanSorted(v, p, nil), scanSorted(flat, p, nil); !slices.EqualFunc(got, want, func(a, b kg.Triple) bool { return a.IdentityKey() == b.IdentityKey() }) {
					t.Fatalf("scan of %d: %v, want %v", p, got, want)
				}
			}

			// Early stop: a false return halts enumeration, in the base's
			// chunks and in the trailing adds alike.
			for _, s := range ents {
				calls := 0
				v.FactsChunked(s, preds[len(preds)-1], 1, func([]kg.Triple) bool { calls++; return false })
				if calls > 1 {
					t.Fatalf("FactsChunked(%d) ignored early stop: %d calls", s, calls)
				}
			}

			for qi, q := range overlayQueries(ents, preds) {
				label := fmt.Sprintf("q=%d", qi)
				want, err := New(flat).QueryConjunctive(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := collectSorted(v.StreamConjunctive(q, QueryOptions{}))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(got, want, func(a, b Binding) bool { return canonBinding(a) == canonBinding(b) }) {
					t.Fatalf("%s: sorted rows differ\nview: %v\nflat: %v", label, got, want)
				}
				stream := collectCanonRows(t, label, v.StreamConjunctive(q, QueryOptions{}))
				if tc.overlap(func(kg.Triple) bool { return true }) == 0 {
					// Equal counts, so equal plans, so equal stream order.
					if flatStream := collectCanonRows(t, label, streamConjunctive(flat, q, QueryOptions{})); !equalRows(stream, flatStream) {
						t.Fatalf("%s: stream order differs\nview: %v\nflat: %v", label, stream, flatStream)
					}
				}
				for _, pageSize := range []int{2, 7} {
					var paged []string
					var cursor []kg.ValueKey
					for {
						n := 0
						for b, err := range v.StreamConjunctive(q, QueryOptions{Limit: pageSize, Cursor: cursor}) {
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							paged = append(paged, canonBinding(b))
							cursor = BindingKey(b)
							n++
						}
						if n < pageSize || len(paged) > len(stream) {
							break
						}
					}
					if !equalRows(paged, stream) {
						t.Fatalf("%s page=%d: pages diverge from the stream\npaged:  %v\nstream: %v", label, pageSize, paged, stream)
					}
				}
			}
		})
	}
}
