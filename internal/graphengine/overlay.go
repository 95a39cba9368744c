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
// planner picks the same plan it would against the live graph), and
// enumeration order matches live construction order — base entries in
// the base's index order with suffix-retracted entries skipped (live
// retraction splices preserve relative order), suffix-added entries
// appended in mutation order (live assertion appends). A query streamed
// through the overlay is therefore byte-identical to the same query
// streamed against a graph recovered from the same checkpoint and
// replayed to the as-of watermark.
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

	// Base-present triples retracted by the suffix. Enumerations skip
	// them; the count maps below carry the same information aggregated
	// per fact list and posting so the planner probes stay O(1).
	removed  map[kg.TripleKey]struct{}
	remFacts map[spKey]int
	remPosts map[poKey]int

	// Suffix-added triples, per fact list and posting, in mutation
	// order (matching live assertion-append order). inAdded is their
	// identity set; a suffix retract of a suffix add splices these
	// lists order-preservingly, exactly as live retraction does.
	inAdded    map[kg.TripleKey]struct{}
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
		removed:    make(map[kg.TripleKey]struct{}),
		remFacts:   make(map[spKey]int),
		remPosts:   make(map[poKey]int),
		inAdded:    make(map[kg.TripleKey]struct{}),
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

func (o *Overlay) applyAssert(t kg.Triple) {
	k := t.IdentityKey()
	if _, ok := o.inAdded[k]; ok {
		return // duplicate assert of a suffix add: live no-op
	}
	if _, gone := o.removed[k]; !gone && o.base.HasFact(t.Subject, t.Predicate, t.Object) {
		return // already present in the base and not retracted: live no-op
	}
	// Not currently present: append. A re-assert of a suffix-retracted
	// base triple lands here too — it stays in removed (its original
	// index position is gone for good) and appends at the end, which is
	// where live re-assertion puts it.
	sp, po := spKey{t.Subject, t.Predicate}, poKey{t.Predicate, k.Object}
	o.inAdded[k] = struct{}{}
	o.addedFacts[sp] = append(o.addedFacts[sp], t)
	o.addedPosts[po] = append(o.addedPosts[po], t.Subject)
	o.predDelta[t.Predicate]++
}

func (o *Overlay) applyRetract(t kg.Triple) {
	k := t.IdentityKey()
	sp, po := spKey{t.Subject, t.Predicate}, poKey{t.Predicate, k.Object}
	if _, ok := o.inAdded[k]; ok {
		delete(o.inAdded, k)
		o.addedFacts[sp] = spliceTriple(o.addedFacts[sp], k)
		o.addedPosts[po] = spliceSubject(o.addedPosts[po], t.Subject)
		o.predDelta[t.Predicate]--
		return
	}
	if _, gone := o.removed[k]; gone || !o.base.HasFact(t.Subject, t.Predicate, t.Object) {
		return // not present: live no-op
	}
	o.removed[k] = struct{}{}
	o.remFacts[sp]++
	o.remPosts[po]++
	o.predDelta[t.Predicate]--
}

// spliceTriple removes the triple with the given identity, preserving
// relative order — the overlay twin of the live graph's removeTriple.
func spliceTriple(ts []kg.Triple, key kg.TripleKey) []kg.Triple {
	for i := range ts {
		if ts[i].IdentityKey() == key {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

// spliceSubject removes the first occurrence of s, preserving relative
// order. A posting holds at most one entry per subject (SPO identity
// includes the subject), so first occurrence is the only occurrence.
func spliceSubject(subs []kg.EntityID, s kg.EntityID) []kg.EntityID {
	for i := range subs {
		if subs[i] == s {
			return append(subs[:i], subs[i+1:]...)
		}
	}
	return subs
}

// --- conjGraph ----------------------------------------------------------

// FactCount returns the (subj, pred) fact count at the as-of watermark.
func (o *Overlay) FactCount(subj kg.EntityID, pred kg.PredicateID) int {
	sp := spKey{subj, pred}
	return o.base.FactCount(subj, pred) - o.remFacts[sp] + len(o.addedFacts[sp])
}

// SubjectsWithCount returns the (pred, obj) posting size at the as-of
// watermark.
func (o *Overlay) SubjectsWithCount(pred kg.PredicateID, obj kg.Value) int {
	po := poKey{pred, obj.MapKey()}
	return o.base.SubjectsWithCount(pred, obj) - o.remPosts[po] + len(o.addedPosts[po])
}

// PredicateFrequency returns the predicate's triple count at the as-of
// watermark.
func (o *Overlay) PredicateFrequency(pred kg.PredicateID) int {
	return o.base.PredicateFrequency(pred) + o.predDelta[pred]
}

// HasFact reports whether the fact is asserted at the as-of watermark.
func (o *Overlay) HasFact(subj kg.EntityID, pred kg.PredicateID, obj kg.Value) bool {
	k := kg.TripleKey{Subject: subj, Predicate: pred, Object: obj.MapKey()}
	if _, ok := o.inAdded[k]; ok {
		return true
	}
	if _, gone := o.removed[k]; gone {
		return false
	}
	return o.base.HasFact(subj, pred, obj)
}

// FactsFunc streams the (subj, pred) facts in live enumeration order:
// surviving base facts in base order, then suffix-added facts in
// mutation order.
func (o *Overlay) FactsFunc(subj kg.EntityID, pred kg.PredicateID, fn func(kg.Triple) bool) {
	stopped := false
	o.base.FactsFunc(subj, pred, func(t kg.Triple) bool {
		if _, gone := o.removed[t.IdentityKey()]; gone {
			return true
		}
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, t := range o.addedFacts[spKey{subj, pred}] {
		if !fn(t) {
			return
		}
	}
}

// FactsChunked streams the (subj, pred) facts in chunks of at most
// chunkSize, in the same order as FactsFunc. The base is immutable, so
// unlike the live graph's chunked read the enumeration can never
// restart: restarted is always false.
func (o *Overlay) FactsChunked(subj kg.EntityID, pred kg.PredicateID, chunkSize int, fn func(chunk []kg.Triple, restarted bool) bool) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	// Sized to the list, not the chunk: a join expands thousands of short
	// fact lists, and a chunk-capacity buffer each is ~128 KiB of clearing.
	buf := make([]kg.Triple, 0, min(chunkSize, o.FactCount(subj, pred)))
	stopped := false
	emit := func(t kg.Triple) bool {
		buf = append(buf, t)
		if len(buf) < chunkSize {
			return true
		}
		ok := fn(buf, false)
		buf = buf[:0]
		return ok
	}
	o.base.FactsChunked(subj, pred, chunkSize, func(chunk []kg.Triple, _ bool) bool {
		for _, t := range chunk {
			if _, gone := o.removed[t.IdentityKey()]; gone {
				continue
			}
			if !emit(t) {
				stopped = true
				return false
			}
		}
		return true
	})
	if stopped {
		return
	}
	for _, t := range o.addedFacts[spKey{subj, pred}] {
		if !emit(t) {
			return
		}
	}
	if len(buf) > 0 {
		fn(buf, false)
	}
}

// SubjectsWithFunc streams the (pred, obj) subjects in live posting
// order: surviving base subjects, then suffix-added subjects.
func (o *Overlay) SubjectsWithFunc(pred kg.PredicateID, obj kg.Value, fn func(kg.EntityID) bool) {
	key := obj.MapKey()
	stopped := false
	o.base.SubjectsWithFunc(pred, obj, func(s kg.EntityID) bool {
		if _, gone := o.removed[kg.TripleKey{Subject: s, Predicate: pred, Object: key}]; gone {
			return true
		}
		if !fn(s) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, s := range o.addedPosts[poKey{pred, key}] {
		if !fn(s) {
			return
		}
	}
}

// SubjectsWithChunked streams the (pred, obj) subjects in chunks of at
// most chunkSize, in the same order as SubjectsWithFunc. The base is
// immutable, so unlike the live graph's chunked read the enumeration
// can never restart: restarted is always false.
func (o *Overlay) SubjectsWithChunked(pred kg.PredicateID, obj kg.Value, chunkSize int, fn func(chunk []kg.EntityID, restarted bool) bool) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	key := obj.MapKey()
	buf := make([]kg.EntityID, 0, min(chunkSize, o.SubjectsWithCount(pred, obj)))
	stopped := false
	emit := func(s kg.EntityID) bool {
		buf = append(buf, s)
		if len(buf) < chunkSize {
			return true
		}
		ok := fn(buf, false)
		buf = buf[:0]
		return ok
	}
	// The base's chunked read copies slabs out under its stripe lock, so
	// fn below runs lock-free, matching the live contract.
	o.base.SubjectsWithChunked(pred, obj, chunkSize, func(chunk []kg.EntityID, _ bool) bool {
		for _, s := range chunk {
			if _, gone := o.removed[kg.TripleKey{Subject: s, Predicate: pred, Object: key}]; gone {
				continue
			}
			if !emit(s) {
				stopped = true
				return false
			}
		}
		return true
	})
	if stopped {
		return
	}
	for _, s := range o.addedPosts[poKey{pred, key}] {
		if !emit(s) {
			return
		}
	}
	if len(buf) > 0 {
		fn(buf, false)
	}
}

// PredicateEntriesFunc streams every (object, subject) pair under pred
// at the as-of watermark. Like the live graph's, the order is
// unspecified (the plan executor sorts unbound expansions).
func (o *Overlay) PredicateEntriesFunc(pred kg.PredicateID, fn func(obj kg.Value, subj kg.EntityID) bool) {
	stopped := false
	o.base.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
		if _, gone := o.removed[kg.TripleKey{Subject: subj, Predicate: pred, Object: obj.MapKey()}]; gone {
			return true
		}
		if !fn(obj, subj) {
			stopped = true
			return false
		}
		return true
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
