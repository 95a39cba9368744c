package graphengine

import (
	"fmt"
	"iter"
	"math"

	"saga/internal/kg"
)

// The layered view: a base graph read through two layers,
// (base ∖ dels) ∪ adds, each a kg.Graph made over the live graph
// (kg.NewGraphOver), so it shares the live dictionaries. It is the one
// conjGraph besides *kg.Graph, and every read is the same read of the
// three graphs. It serves both layered reads the platform has:
//
//   - As-of reads (NewOverlay): an immutable base restored from a retained
//     checkpoint plus the net effect of the mutation suffix up to the
//     requested watermark, never applied to the base — one cached base
//     serves every as-of read above its checkpoint, and a point-in-time
//     view costs O(suffix), not O(graph).
//   - Derived predicates (Union, installed by Engine.AttachDerived): the
//     live graph plus the rule engine's derived facts, which are never
//     written into the live graph. dels is empty. Freshness is whatever
//     the graphs answer at call time.
//
// # Canonical order
//
// Every enumeration is the base's sorted list with the layers' sorted
// lists merged in (layeredChunks) — fact lists by object key, postings by
// subject ID — which is the order any graph holding the same facts
// enumerates in. An add the base also holds collapses into the base's
// copy; an add whose base copy is in dels takes its place. A query
// streamed through an as-of overlay is therefore byte-identical to the
// same query against the live graph at that watermark, and cursors over
// derived predicates resume like cursors over base ones.
//
// # Counts
//
// Counts are base − |dels| + |adds|. In the as-of shape dels ⊆ base and
// adds is disjoint from base ∖ dels, so they are exact and the planner
// picks the plan it would have picked live. In the derived shape a fact
// asserted both ways counts twice; the executor uses counts only as
// planner estimates and capacity hints, never as truncation bounds, so
// the overlap cannot drop rows.
//
// # Locking
//
// Layer reads copy out (Facts, subjectsAfter, entries), so no caller
// code runs under a layer's lock: the executor recurses into further
// reads from inside an enumeration, and a visitor holding a layer's read
// lock could deadlock against a writer queued on it. The base of an
// as-of overlay must not be mutated while the overlay is in use; wal's
// SnapshotAt bases satisfy this by construction.

// Overlay is the conjunctive read surface over a base graph layered with
// removed and added facts. Build one with NewOverlay or Union.
type Overlay struct {
	base *kg.Graph
	// A base fact retracted and then re-asserted sits in both layers: the
	// re-assertion carries its own provenance.
	adds, dels *kg.Graph
}

// NewOverlay builds the as-of overlay for base plus the ordered mutation
// suffix, its layers made over live. The suffix must be exactly the
// mutations that followed the base's watermark (wal.Manager.SnapshotAt
// returns such a pair); the base is retained and must not be mutated
// while the overlay is alive. A suffix fact may name an entity or
// predicate registered after the base's checkpoint, which live's
// dictionaries hold; one a layer refuses is an error.
func NewOverlay(live, base *kg.Graph, muts []kg.Mutation) (*Overlay, error) {
	o := &Overlay{base: base, adds: kg.NewGraphOver(live), dels: kg.NewGraphOver(live)}
	for _, mu := range muts {
		t := mu.T
		var err error
		switch mu.Op {
		case kg.OpAssert:
			// Already present at this point of the suffix: live no-op.
			if !o.HasFact(t.Subject, t.Predicate, t.Object) {
				err = o.adds.Assert(t)
			}
		case kg.OpRetract:
			// Not present: live no-op.
			if !o.adds.Retract(t) && base.HasFact(t.Subject, t.Predicate, t.Object) {
				err = o.dels.Assert(t)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("graphengine: as-of mutation %d: %w", mu.Seq, err)
		}
	}
	return o, nil
}

// Union returns the view of base plus the facts of adds, a graph made
// over base, read live: later changes to either show through.
func Union(base, adds *kg.Graph) *Overlay {
	return &Overlay{base: base, adds: adds, dels: kg.NewGraphOver(base)}
}

// --- conjGraph ----------------------------------------------------------

// FactCount returns the (subj, pred) fact count.
func (o *Overlay) FactCount(subj kg.EntityID, pred kg.PredicateID) int {
	return o.base.FactCount(subj, pred) - o.dels.FactCount(subj, pred) + o.adds.FactCount(subj, pred)
}

// SubjectsWithCount returns the (pred, obj) posting size.
func (o *Overlay) SubjectsWithCount(pred kg.PredicateID, obj kg.Value) int {
	return o.base.SubjectsWithCount(pred, obj) - o.dels.SubjectsWithCount(pred, obj) + o.adds.SubjectsWithCount(pred, obj)
}

// PredicateFrequency returns the predicate's triple count.
func (o *Overlay) PredicateFrequency(pred kg.PredicateID) int {
	return o.base.PredicateFrequency(pred) - o.dels.PredicateFrequency(pred) + o.adds.PredicateFrequency(pred)
}

// HasFact reports whether the fact is in the view, exactly.
func (o *Overlay) HasFact(subj kg.EntityID, pred kg.PredicateID, obj kg.Value) bool {
	if o.adds.HasFact(subj, pred, obj) {
		return true
	}
	return !o.dels.HasFact(subj, pred, obj) && o.base.HasFact(subj, pred, obj)
}

// FactsChunked streams the (subj, pred) facts in object-key order, in
// chunks (see layeredChunks for their sizes).
func (o *Overlay) FactsChunked(subj kg.EntityID, pred kg.PredicateID, chunkSize int, fn func(chunk []kg.Triple) bool) {
	layeredChunks(o.adds.Facts(subj, pred), o.dels.Facts(subj, pred), cmpObject, func(fn func([]kg.Triple) bool) {
		o.base.FactsChunked(subj, pred, chunkSize, fn)
	}, fn)
}

// SubjectsWithChunked streams the (pred, obj) subjects greater than
// after in ascending ID order, in chunks.
func (o *Overlay) SubjectsWithChunked(pred kg.PredicateID, obj kg.Value, after kg.EntityID, chunkSize int, fn func(chunk []kg.EntityID) bool) {
	layeredChunks(subjectsAfter(o.adds, pred, obj, after), subjectsAfter(o.dels, pred, obj, after), cmpEntity, func(fn func([]kg.EntityID) bool) {
		o.base.SubjectsWithChunked(pred, obj, after, chunkSize, fn)
	}, fn)
}

// PredicateEntriesFunc streams every (object, subject) pair under pred:
// the base's entries not in dels, then the added ones. The order is
// unspecified (the live graph's is by object, then subject), and an add
// the base also holds appears twice: the executor's scan sorts and
// collapses both.
func (o *Overlay) PredicateEntriesFunc(pred kg.PredicateID, fn func(obj kg.Value, subj kg.EntityID) bool) {
	removed := o.dels.PredicateFrequency(pred) > 0
	stopped := false
	o.base.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
		if removed && o.dels.HasFact(subj, pred, obj) {
			return true
		}
		stopped = !fn(obj, subj)
		return !stopped
	})
	if stopped {
		return
	}
	for _, t := range entries(o.adds, pred) {
		if !fn(t.Object, t.Subject) {
			return
		}
	}
}

// subjectsAfter copies out layer's (pred, obj) subjects greater than
// after, in ascending order.
func subjectsAfter(layer *kg.Graph, pred kg.PredicateID, obj kg.Value, after kg.EntityID) (out []kg.EntityID) {
	layer.SubjectsWithChunked(pred, obj, after, math.MaxInt, func(chunk []kg.EntityID) bool {
		out = chunk // the one chunk, which no later call reuses
		return false
	})
	return out
}

// entries copies out every fact of layer under pred, objects rebuilt
// from their identity keys (so without provenance), in object-key order.
func entries(layer *kg.Graph, pred kg.PredicateID) []kg.Triple {
	out := make([]kg.Triple, 0, layer.PredicateFrequency(pred))
	layer.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
		out = append(out, kg.Triple{Subject: subj, Predicate: pred, Object: obj})
		return true
	})
	return out
}

// --- Query surface ------------------------------------------------------

// StreamRows evaluates the conjunction against the view, with the same
// streaming contract as Engine.StreamRows. Planning is per call (the
// overlay has no plan cache); because an as-of overlay's counter probes
// return exactly the live graph's counts at the as-of watermark, the
// planner builds the same plan a live query at that watermark would run,
// and the stream order matches it row for row.
func (o *Overlay) StreamRows(clauses []Clause, opts QueryOptions) iter.Seq2[Row, error] {
	return streamRows(o, clauses, opts)
}

// StreamConjunctive is StreamRows with every row detached into a
// Binding, as Engine.StreamConjunctive is of Engine.StreamRows. The rule
// engine solves its bodies through here, over the union with its own
// derived facts — the recursion that makes transitive closure converge.
func (o *Overlay) StreamConjunctive(clauses []Clause, opts QueryOptions) iter.Seq2[Binding, error] {
	return streamConjunctive(o, clauses, opts)
}
