package graphengine

import (
	"iter"

	"saga/internal/kg"
)

// The layered view: a base graph read through two sorted fact sets,
// (base ∖ dels) ∪ adds. It is the one conjGraph besides *kg.Graph, and
// it serves both layered reads the platform has:
//
//   - As-of reads (NewOverlay): an immutable base restored from a retained
//     checkpoint plus the net effect of the mutation suffix up to the
//     requested watermark, never applied to the base — one cached base
//     serves every as-of read above its checkpoint, and a point-in-time
//     view costs O(suffix), not O(graph).
//   - Derived predicates (Union, installed by Engine.AttachDerived): the
//     live graph plus the rule engine's derived facts, which are never
//     written into kg.Graph. dels is nil. Freshness is whatever the graph
//     and the set answer at call time.
//
// # Canonical order
//
// Every enumeration is the base's sorted list with the sets' sorted lists
// merged in (layeredChunks) — fact lists by object key, postings by
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
// Set reads copy out (see FactSet), so no set lock is held while solver
// code runs. The base of an as-of overlay must not be mutated while the
// overlay is in use; wal's SnapshotAt bases satisfy this by construction.

// Overlay is the conjunctive read surface over a base graph layered with
// removed and added facts. Build one with NewOverlay or Union.
type Overlay struct {
	base *kg.Graph
	// A base fact retracted and then re-asserted sits in both sets: the
	// re-assertion carries its own provenance.
	adds, dels *FactSet
}

// NewOverlay builds the as-of overlay for base plus the ordered mutation
// suffix. The suffix must be exactly the mutations that followed the
// base's watermark (wal.Manager.SnapshotAt returns such a pair); the
// base is retained and must not be mutated while the overlay is alive.
func NewOverlay(base *kg.Graph, muts []kg.Mutation) *Overlay {
	o := &Overlay{base: base, adds: NewFactSet(), dels: NewFactSet()}
	for _, mu := range muts {
		t := mu.T
		switch mu.Op {
		case kg.OpAssert:
			// Already present at this point of the suffix: live no-op.
			if !o.HasFact(t.Subject, t.Predicate, t.Object) {
				o.adds.Insert(t)
			}
		case kg.OpRetract:
			// Not present: live no-op.
			if _, added := o.adds.Remove(t.IdentityKey()); !added && base.HasFact(t.Subject, t.Predicate, t.Object) {
				o.dels.Insert(t)
			}
		}
	}
	return o
}

// Union returns the view of base plus the facts of adds, read live: later
// changes to either show through.
func Union(base *kg.Graph, adds *FactSet) *Overlay {
	return &Overlay{base: base, adds: adds}
}

// --- conjGraph ----------------------------------------------------------

// FactCount returns the (subj, pred) fact count.
func (o *Overlay) FactCount(subj kg.EntityID, pred kg.PredicateID) int {
	return o.base.FactCount(subj, pred) - o.dels.FactCount(subj, pred) + o.adds.FactCount(subj, pred)
}

// SubjectsWithCount returns the (pred, obj) posting size.
func (o *Overlay) SubjectsWithCount(pred kg.PredicateID, obj kg.Value) int {
	key := obj.MapKey()
	return o.base.SubjectsWithCount(pred, obj) - o.dels.SubjectCount(pred, key) + o.adds.SubjectCount(pred, key)
}

// PredicateFrequency returns the predicate's triple count.
func (o *Overlay) PredicateFrequency(pred kg.PredicateID) int {
	return o.base.PredicateFrequency(pred) - o.dels.Frequency(pred) + o.adds.Frequency(pred)
}

// HasFact reports whether the fact is in the view, exactly.
func (o *Overlay) HasFact(subj kg.EntityID, pred kg.PredicateID, obj kg.Value) bool {
	k := kg.TripleKey{Subject: subj, Predicate: pred, Object: obj.MapKey()}
	if o.adds.Has(k) {
		return true
	}
	return !o.dels.Has(k) && o.base.HasFact(subj, pred, obj)
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
	key := obj.MapKey()
	layeredChunks(o.adds.Subjects(pred, key, after), o.dels.Subjects(pred, key, after), cmpEntity, func(fn func([]kg.EntityID) bool) {
		o.base.SubjectsWithChunked(pred, obj, after, chunkSize, fn)
	}, fn)
}

// PredicateEntriesFunc streams every (object, subject) pair under pred:
// the base's entries not in dels, then the added ones. Like the live
// graph's, the order is unspecified, and an add the base also holds
// appears twice: the executor's scan sorts and collapses both.
func (o *Overlay) PredicateEntriesFunc(pred kg.PredicateID, fn func(obj kg.Value, subj kg.EntityID) bool) {
	removed := o.dels.Frequency(pred) > 0
	stopped := false
	o.base.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
		if removed && o.dels.Has(kg.TripleKey{Subject: subj, Predicate: pred, Object: obj.MapKey()}) {
			return true
		}
		stopped = !fn(obj, subj)
		return !stopped
	})
	if stopped {
		return
	}
	for _, t := range o.adds.Entries(pred) {
		if !fn(t.Object, t.Subject) {
			return
		}
	}
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

// QueryConjunctive collects the full answer set sorted by key tuple,
// matching Engine.QueryConjunctive's contract.
func (o *Overlay) QueryConjunctive(clauses []Clause) ([]Binding, error) {
	return collectSorted(o.StreamConjunctive(clauses, QueryOptions{}))
}
