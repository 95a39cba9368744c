package graphengine

import (
	"slices"
	"sync"

	"saga/internal/kg"
)

// FactSet is a sorted set of facts with the graph's two access paths —
// the unsharded, log-free twin of kg.Graph's runs/pom layout, for facts
// that must not go through a graph: an as-of suffix and the rule engine's
// derived facts are never validated against a dictionary, draw no
// sequence numbers and feed no changefeed.
//
// # The sorted-list invariant
//
// A (subject, predicate) fact list is sorted by object ValueKey and a
// (predicate, object) posting by subject ID, both duplicate-free — the
// order kg.Graph keeps, so a layered read (Overlay) merges a set into a
// graph's enumeration without sorting anything. The fact list is also the
// identity set: membership, insert and remove are a binary search plus a
// splice, and each fact is stored once, as the graph stores it: a
// kg.FactRow, the 40-byte row the graph's own subject runs hold, keyed
// by (subject, predicate). Reads build Triples from the rows, so a fact
// comes back with its provenance normalised exactly as the graph's do.
//
// # The leaf-lock rule
//
// mu is a leaf: nothing is called while it is held, and every read copies
// its answer out before returning. The executor recurses into further
// reads from inside an enumeration, so a visitor running under the lock
// could deadlock against a queued writer; copying out means no caller
// code ever runs under it. A FactSet is safe for concurrent use. The reads
// a layered view makes of its removed-facts set — Has, the three counts,
// Facts, Subjects — treat a nil *FactSet as the empty set.
type FactSet struct {
	mu    sync.RWMutex
	facts map[spKey][]kg.FactRow
	preds map[kg.PredicateID]*predPosts
	n     int
}

// spKey identifies a (subject, predicate) fact list.
type spKey struct {
	S kg.EntityID
	P kg.PredicateID
}

// predPosts is one predicate's postings by object identity, and their
// total size.
type predPosts struct {
	objs  map[kg.ValueKey][]kg.EntityID
	total int
}

// NewFactSet returns an empty set.
func NewFactSet() *FactSet {
	return &FactSet{
		facts: make(map[spKey][]kg.FactRow),
		preds: make(map[kg.PredicateID]*predPosts),
	}
}

// Insert adds t, reporting whether it was absent. A fact already present
// keeps its stored copy.
func (fs *FactSet) Insert(t kg.Triple) bool {
	row := kg.RowOf(t.Object, t.Prov)
	sp, obj := spKey{t.Subject, t.Predicate}, row.Key()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	list := fs.facts[sp]
	i, found := kg.SearchRows(list, obj)
	if found {
		return false
	}
	fs.facts[sp] = slices.Insert(list, i, row)
	pp := fs.preds[t.Predicate]
	if pp == nil {
		pp = &predPosts{objs: make(map[kg.ValueKey][]kg.EntityID)}
		fs.preds[t.Predicate] = pp
	}
	post := pp.objs[obj]
	j, _ := slices.BinarySearch(post, t.Subject)
	pp.objs[obj] = slices.Insert(post, j, t.Subject)
	pp.total++
	fs.n++
	return true
}

// Remove deletes the fact with identity k, returning the stored copy and
// whether it was present. Emptied lists release their map entries.
func (fs *FactSet) Remove(k kg.TripleKey) (kg.Triple, bool) {
	sp := spKey{k.Subject, k.Predicate}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	list := fs.facts[sp]
	i, found := kg.SearchRows(list, k.Object)
	if !found {
		return kg.Triple{}, false
	}
	t := list[i].Triple(k.Subject, k.Predicate)
	if len(list) == 1 {
		delete(fs.facts, sp)
	} else {
		fs.facts[sp] = slices.Delete(list, i, i+1)
	}
	pp := fs.preds[k.Predicate]
	if post := pp.objs[k.Object]; len(post) == 1 {
		delete(pp.objs, k.Object)
	} else {
		j, _ := slices.BinarySearch(post, k.Subject)
		pp.objs[k.Object] = slices.Delete(post, j, j+1)
	}
	if pp.total--; pp.total == 0 {
		delete(fs.preds, k.Predicate)
	}
	fs.n--
	return t, true
}

// Has reports whether the fact with identity k is in the set.
func (fs *FactSet) Has(k kg.TripleKey) bool {
	if fs == nil {
		return false
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, found := kg.SearchRows(fs.facts[spKey{k.Subject, k.Predicate}], k.Object)
	return found
}

// Len returns the number of facts.
func (fs *FactSet) Len() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.n
}

// FactCount returns the number of (subj, pred, *) facts.
func (fs *FactSet) FactCount(subj kg.EntityID, pred kg.PredicateID) int {
	if fs == nil {
		return 0
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.facts[spKey{subj, pred}])
}

// SubjectCount returns the number of (*, pred, obj) facts.
func (fs *FactSet) SubjectCount(pred kg.PredicateID, obj kg.ValueKey) int {
	if fs == nil {
		return 0
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if pp := fs.preds[pred]; pp != nil {
		return len(pp.objs[obj])
	}
	return 0
}

// Frequency returns the number of facts under pred.
func (fs *FactSet) Frequency(pred kg.PredicateID) int {
	if fs == nil {
		return 0
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if pp := fs.preds[pred]; pp != nil {
		return pp.total
	}
	return 0
}

// Facts returns a copy of the (subj, pred) facts in object-key order.
func (fs *FactSet) Facts(subj kg.EntityID, pred kg.PredicateID) []kg.Triple {
	if fs == nil {
		return nil
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	rows := fs.facts[spKey{subj, pred}]
	if rows == nil {
		return nil
	}
	out := make([]kg.Triple, len(rows))
	for i := range rows {
		out[i] = rows[i].Triple(subj, pred)
	}
	return out
}

// Subjects returns a copy of the (pred, obj) subjects greater than after
// in ascending order.
func (fs *FactSet) Subjects(pred kg.PredicateID, obj kg.ValueKey, after kg.EntityID) []kg.EntityID {
	if fs == nil {
		return nil
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	pp := fs.preds[pred]
	if pp == nil {
		return nil
	}
	post := pp.objs[obj]
	return slices.Clone(post[upTo(post, after, cmpEntity):])
}

// Entries returns every fact under pred, objects rebuilt from their
// identity keys (so without provenance), in no particular order.
func (fs *FactSet) Entries(pred kg.PredicateID) []kg.Triple {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	pp := fs.preds[pred]
	if pp == nil {
		return nil
	}
	out := make([]kg.Triple, 0, pp.total)
	for key, post := range pp.objs {
		obj := key.Value()
		for _, s := range post {
			out = append(out, kg.Triple{Subject: s, Predicate: pred, Object: obj})
		}
	}
	return out
}
