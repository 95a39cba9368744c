package graphengine

import (
	"iter"
	"slices"

	"saga/internal/kg"
)

// As-of read overlay. An Overlay joins an immutable base graph (a graph
// restored from a retained checkpoint) with the mutation suffix between
// the checkpoint's watermark and the requested as-of watermark, without
// ever applying the suffix to the base — so one cached base serves every
// as-of read above its checkpoint, and building a point-in-time view
// costs O(suffix), not O(graph).
//
// The overlay implements the conjunctive solver's read surface
// (conjGraph) with the exact semantics a live graph would have at the
// as-of watermark: counts are base counts plus exact deltas (so the
// planner picks the same plan it would against the live graph), and every
// enumeration is the base's sorted list with the suffix's sorted removals
// and additions merged in (layeredChunks) — the canonical order of the
// facts at the watermark, which is the order any graph holding those
// facts enumerates in. A query streamed through the overlay is therefore
// byte-identical to the same query streamed against the live graph at
// that watermark, or against a graph recovered from the checkpoint and
// replayed to it.
//
// The base must not be mutated while the overlay is in use; wal's
// SnapshotAt bases satisfy this by construction. The overlay itself is
// immutable after NewOverlay and safe for concurrent readers.

// spKey identifies a (subject, predicate) fact list.
type spKey struct {
	S kg.EntityID
	P kg.PredicateID
}

// poKey identifies a (predicate, object) posting list.
type poKey struct {
	P kg.PredicateID
	O kg.ValueKey
}

// Overlay is a point-in-time conjunctive read surface over an immutable
// base graph plus a mutation suffix. Build one with NewOverlay.
type Overlay struct {
	base *kg.Graph

	// The suffix's net effect per fact list and per posting, each list in
	// the base's own order (facts by object key, postings by subject ID):
	// rem* are base-present entries the suffix retracted, added* entries
	// the suffix asserted. A base fact retracted and then re-asserted sits
	// in both — the re-assertion carries its own provenance — and the
	// merge lets the added copy take the removed one's place.
	remFacts   map[spKey][]kg.Triple
	remPosts   map[poKey][]kg.EntityID
	addedFacts map[spKey][]kg.Triple
	addedPosts map[poKey][]kg.EntityID

	// Net triple-count delta per predicate, for PredicateFrequency.
	predDelta map[kg.PredicateID]int
}

// NewOverlay builds the overlay for base plus the ordered mutation
// suffix. The suffix must be exactly the mutations that followed the
// base's watermark (wal.Manager.SnapshotAt returns such a pair); the
// base is retained and must not be mutated while the overlay is alive.
func NewOverlay(base *kg.Graph, muts []kg.Mutation) *Overlay {
	o := &Overlay{
		base:       base,
		remFacts:   make(map[spKey][]kg.Triple),
		remPosts:   make(map[poKey][]kg.EntityID),
		addedFacts: make(map[spKey][]kg.Triple),
		addedPosts: make(map[poKey][]kg.EntityID),
		predDelta:  make(map[kg.PredicateID]int),
	}
	for _, mu := range muts {
		switch mu.Op {
		case kg.OpAssert:
			o.applyAssert(mu.T)
		case kg.OpRetract:
			o.applyRetract(mu.T)
		}
	}
	return o
}

// insertSorted adds v to the sorted list m[k], reporting whether it was
// absent.
func insertSorted[K comparable, T any](m map[K][]T, k K, v T, cmp func(a, b T) int) bool {
	i, found := slices.BinarySearchFunc(m[k], v, cmp)
	if !found {
		m[k] = slices.Insert(m[k], i, v)
	}
	return !found
}

// removeSorted deletes v from the sorted list m[k], reporting whether it
// was present.
func removeSorted[K comparable, T any](m map[K][]T, k K, v T, cmp func(a, b T) int) bool {
	i, found := slices.BinarySearchFunc(m[k], v, cmp)
	if found {
		m[k] = slices.Delete(m[k], i, i+1)
	}
	return found
}

func hasSorted[T any](s []T, v T, cmp func(a, b T) int) bool {
	_, found := slices.BinarySearchFunc(s, v, cmp)
	return found
}

func (o *Overlay) applyAssert(t kg.Triple) {
	if o.HasFact(t.Subject, t.Predicate, t.Object) {
		return // already present at this point of the suffix: live no-op
	}
	insertSorted(o.addedFacts, spKey{t.Subject, t.Predicate}, t, cmpObject)
	insertSorted(o.addedPosts, poKey{t.Predicate, t.Object.MapKey()}, t.Subject, cmpEntity)
	o.predDelta[t.Predicate]++
}

func (o *Overlay) applyRetract(t kg.Triple) {
	sp, po := spKey{t.Subject, t.Predicate}, poKey{t.Predicate, t.Object.MapKey()}
	switch {
	case removeSorted(o.addedFacts, sp, t, cmpObject):
		removeSorted(o.addedPosts, po, t.Subject, cmpEntity)
	case o.base.HasFact(t.Subject, t.Predicate, t.Object) && insertSorted(o.remFacts, sp, t, cmpObject):
		insertSorted(o.remPosts, po, t.Subject, cmpEntity)
	default:
		return // not present: live no-op
	}
	o.predDelta[t.Predicate]--
}

// --- conjGraph ----------------------------------------------------------

// FactCount returns the (subj, pred) fact count at the as-of watermark.
func (o *Overlay) FactCount(subj kg.EntityID, pred kg.PredicateID) int {
	sp := spKey{subj, pred}
	return o.base.FactCount(subj, pred) - len(o.remFacts[sp]) + len(o.addedFacts[sp])
}

// SubjectsWithCount returns the (pred, obj) posting size at the as-of
// watermark.
func (o *Overlay) SubjectsWithCount(pred kg.PredicateID, obj kg.Value) int {
	po := poKey{pred, obj.MapKey()}
	return o.base.SubjectsWithCount(pred, obj) - len(o.remPosts[po]) + len(o.addedPosts[po])
}

// PredicateFrequency returns the predicate's triple count at the as-of
// watermark.
func (o *Overlay) PredicateFrequency(pred kg.PredicateID) int {
	return o.base.PredicateFrequency(pred) + o.predDelta[pred]
}

// HasFact reports whether the fact is asserted at the as-of watermark.
func (o *Overlay) HasFact(subj kg.EntityID, pred kg.PredicateID, obj kg.Value) bool {
	sp, t := spKey{subj, pred}, kg.Triple{Object: obj}
	if hasSorted(o.addedFacts[sp], t, cmpObject) {
		return true
	}
	if hasSorted(o.remFacts[sp], t, cmpObject) {
		return false
	}
	return o.base.HasFact(subj, pred, obj)
}

// FactsChunked streams the (subj, pred) facts at the as-of watermark in
// object-key order, in chunks (see layeredChunks for their sizes).
func (o *Overlay) FactsChunked(subj kg.EntityID, pred kg.PredicateID, chunkSize int, fn func(chunk []kg.Triple) bool) {
	sp := spKey{subj, pred}
	layeredChunks(o.addedFacts[sp], o.remFacts[sp], cmpObject, func(fn func([]kg.Triple) bool) {
		o.base.FactsChunked(subj, pred, chunkSize, fn)
	}, fn)
}

// SubjectsWithChunked streams the (pred, obj) subjects greater than
// after at the as-of watermark in ascending ID order, in chunks.
func (o *Overlay) SubjectsWithChunked(pred kg.PredicateID, obj kg.Value, after kg.EntityID, chunkSize int, fn func(chunk []kg.EntityID) bool) {
	po := poKey{pred, obj.MapKey()}
	added := o.addedPosts[po]
	layeredChunks(added[upTo(added, after, cmpEntity):], o.remPosts[po], cmpEntity, func(fn func([]kg.EntityID) bool) {
		o.base.SubjectsWithChunked(pred, obj, after, chunkSize, fn)
	}, fn)
}

// PredicateEntriesFunc streams every (object, subject) pair under pred
// at the as-of watermark. Like the live graph's, the order is
// unspecified (the plan executor sorts unbound expansions).
func (o *Overlay) PredicateEntriesFunc(pred kg.PredicateID, fn func(obj kg.Value, subj kg.EntityID) bool) {
	stopped := false
	o.base.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
		if hasSorted(o.remPosts[poKey{pred, obj.MapKey()}], subj, cmpEntity) {
			return true
		}
		stopped = !fn(obj, subj)
		return !stopped
	})
	if stopped {
		return
	}
	for po, subs := range o.addedPosts {
		if po.P != pred {
			continue
		}
		obj := po.O.Value()
		for _, s := range subs {
			if !fn(obj, s) {
				return
			}
		}
	}
}

// --- Query surface ------------------------------------------------------

// StreamRows evaluates the conjunction against the overlay's
// point-in-time state, with the same streaming contract as
// Engine.StreamRows. Planning is per call (the overlay has no plan
// cache); because the overlay's counter probes return exactly the live
// graph's counts at the as-of watermark, the planner builds the same
// plan a live query at that watermark would run, and the stream order
// matches it row for row.
func (o *Overlay) StreamRows(clauses []Clause, opts QueryOptions) iter.Seq2[Row, error] {
	return streamRows(o, clauses, opts)
}

// StreamConjunctive is StreamRows with every row detached into a
// Binding, as Engine.StreamConjunctive is of Engine.StreamRows.
func (o *Overlay) StreamConjunctive(clauses []Clause, opts QueryOptions) iter.Seq2[Binding, error] {
	return streamConjunctive(o, clauses, opts)
}

// QueryConjunctive collects the full answer set and sorts it by key
// tuple — the slice shim over StreamConjunctive, matching
// Engine.QueryConjunctive's contract.
func (o *Overlay) QueryConjunctive(clauses []Clause) ([]Binding, error) {
	var out []Binding
	for b, err := range o.StreamConjunctive(clauses, QueryOptions{}) {
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	vars := queryVars(clauses)
	type keyedBinding struct {
		b   Binding
		key []kg.ValueKey
	}
	rows := make([]keyedBinding, len(out))
	for i, b := range out {
		row := make([]kg.ValueKey, len(vars))
		for j, name := range vars {
			row[j] = b[name].MapKey()
		}
		rows[i] = keyedBinding{b: b, key: row}
	}
	slices.SortFunc(rows, func(a, b keyedBinding) int { return compareKeyRows(a.key, b.key) })
	for i, r := range rows {
		out[i] = r.b
	}
	return out, nil
}
