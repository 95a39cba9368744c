package kg

import "slices"

// The predicate-major secondary index ("pom": predicate → object key →
// posting list of subjects). Any cross-subject probe — the bound-object
// clause of a conjunctive query, a selectivity estimate — would otherwise
// have to sweep every subject; the pom index answers the whole-graph
// question under one read-lock hold. A posting is in two layers: the
// base's (frozen.posting: a predicate's distinct objects in key order,
// each with its subjects in one []EntityID) and the delta's (predDelta:
// the subjects each object gained and lost since the base).
// Per-predicate totals ride along, making PredicateFrequency and the
// planner's cost estimates O(1) count lookups instead of sweeps or slice
// builds.
//
// # The sorted-posting invariant
//
// A (pred, obj) posting is a []EntityID in ascending subject-ID order
// with no duplicates (the graph dedups SPO identity). The order is a
// function of the facts alone: whatever the writer interleaving or the
// retract/re-assert history, two graphs holding the same facts hold
// byte-identical postings — which is what lets a checkpoint-recovered
// graph, an as-of overlay and the live graph stream the same rows in the
// same order. A read merges the base's list with the delta's
// (posting.each); a write splices only the delta's short lists.
//
// # Locking
//
// The pom delta is guarded by the graph's lock like every other layer:
// a mutation maintains the posting inline under the write lock, and a
// read holds the read lock, so a posting read is a consistent cut — it
// reflects exactly the first LastSeq mutations at the moment the lock
// was taken, the same cut as any other read under that hold.
//
// # Key-resume chunked reads
//
// SubjectsWithChunked copies a posting out a chunk at a time and resumes
// each chunk at the first subject greater than the last one delivered —
// by key, never by offset — so neither a write nor a fold can shift it: the
// delivered subjects are strictly ascending, every subject present for
// the whole enumeration is delivered exactly once, and none is delivered
// twice. Graph.FactsChunked gives fact lists the same guarantee.

// predDelta is what the writes since the last fold changed of one
// predicate's postings.
type predDelta struct {
	// adds[obj] holds, ascending, the subjects whose (pred, obj) fact the
	// base lacks and the graph holds; dels[obj] those whose fact the base
	// holds and the graph no longer does.
	adds, dels map[ValueKey][]EntityID
	// total is the change in the number of (pred, *) facts; entities the
	// change among those whose object is an entity.
	total, entities int
}

// pomEdit records that subj's (pred, obj) fact is now present or absent;
// inBase says whether the base holds it. The caller holds the write lock
// and has established the fact's presence changed.
func (g *Graph) pomEdit(pred PredicateID, obj ValueKey, subj EntityID, present, inBase bool) {
	pd := g.pom[pred]
	if pd == nil {
		pd = &predDelta{adds: map[ValueKey][]EntityID{}, dels: map[ValueKey][]EntityID{}}
		g.pom[pred] = pd
	}
	m := pd.adds
	if inBase {
		m = pd.dels
	}
	p := m[obj]
	if p == nil {
		p = g.pomSpare.take()
	}
	i, _ := slices.BinarySearch(p, subj)
	switch {
	case present != inBase:
		m[obj] = slices.Insert(p, i, subj)
	case len(p) == 1:
		g.pomSpare.give(p)
		delete(m, obj)
	default:
		m[obj] = slices.Delete(p, i, i+1)
	}
	n := -1
	if present {
		n = 1
	}
	pd.total += n
	if obj.Kind == KindEntity {
		pd.entities += n
	}
}

// posting is a (pred, obj) posting in its layers: the base's subjects,
// and the delta's added ones, which the base lacks, and removed ones,
// which it holds; each ascending.
type posting struct{ base, adds, dels []EntityID }

// postingLocked returns the (pred, obj) posting. The caller holds the
// lock.
func (g *Graph) postingLocked(pred PredicateID, obj ValueKey) (p posting) {
	if pd := g.pom[pred]; pd != nil {
		p.adds, p.dels = pd.adds[obj], pd.dels[obj]
	}
	p.base = g.base.posting(pred, obj)
	return p
}

func (p posting) count() int { return len(p.base) + len(p.adds) - len(p.dels) }

// each calls fn with p's subjects in ascending order and reports whether
// it ran to the end.
func (p posting) each(fn func(EntityID) bool) bool {
	for i, j, k := 0, 0, 0; i < len(p.base) || j < len(p.adds); {
		var s EntityID
		if j < len(p.adds) && (i == len(p.base) || p.adds[j] < p.base[i]) {
			s, j = p.adds[j], j+1
		} else {
			s, i = p.base[i], i+1
			if k < len(p.dels) && p.dels[k] == s {
				k++
				continue
			}
		}
		if !fn(s) {
			return false
		}
	}
	return true
}

// SyncIndexes is a no-op: the predicate-major index is maintained inline
// with every mutation, so there is never deferred work to apply. It is
// kept because the benchmark harness (bench/trace.go) still calls it.
func (g *Graph) SyncIndexes() {}

// SubjectsWithFunc streams the subjects carrying (pred, obj) facts to fn
// in ascending ID order under the read lock — one consistent point for
// the whole posting — stopping early if fn returns false. fn must not
// mutate the graph or read its triple indexes; it may read the
// dictionaries (see Visitor callbacks on Graph).
func (g *Graph) SubjectsWithFunc(pred PredicateID, obj Value, fn func(EntityID) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.postingLocked(pred, obj.MapKey()).each(fn)
}

// SubjectsWithChunked streams the subjects greater than after (NoEntity
// for all of them) carrying (pred, obj) facts to fn in ascending ID
// order, in chunks of at most chunkSize, copying each chunk out under one
// read-lock acquisition and invoking fn with no locks held — the
// bounded-copy read for huge postings, where a limit=10 query should not
// pay a million-entry slab copy before its first row. fn may read or mutate the graph freely and stops the
// enumeration by returning false; the chunk slice is reused by the next
// call, so only the last chunk delivered may be retained.
//
// Each chunk resumes at the first subject greater than the last one
// delivered (see the package notes above): subjects present throughout
// are delivered exactly once, none twice; subjects asserted or retracted
// concurrently may or may not appear.
func (g *Graph) SubjectsWithChunked(pred PredicateID, obj Value, after EntityID, chunkSize int, fn func(chunk []EntityID) bool) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	key := obj.MapKey()
	past := func(ids []EntityID) []EntityID {
		i, found := slices.BinarySearch(ids, after)
		if found {
			i++
		}
		return ids[i:]
	}
	var buf []EntityID
	for {
		g.mu.RLock()
		p := g.postingLocked(pred, key)
		p = posting{past(p.base), past(p.adds), past(p.dels)}
		if buf == nil {
			// Sized to the smaller of the chunk and the posting: a selective
			// query over an 8-subject posting must not pay a chunkSize-
			// capacity allocation.
			buf = make([]EntityID, 0, min(chunkSize, p.count()))
		}
		var done bool
		if len(p.adds)+len(p.dels) == 0 {
			// The posting is all base: copy it out in one move.
			buf = append(buf[:0], p.base[:min(chunkSize, len(p.base))]...)
			done = len(buf) == len(p.base)
		} else {
			buf = buf[:0]
			done = p.each(func(s EntityID) bool {
				if len(buf) == chunkSize {
					return false
				}
				buf = append(buf, s)
				return true
			})
		}
		g.mu.RUnlock()
		if len(buf) == 0 || !fn(buf) || done {
			return
		}
		after = buf[len(buf)-1]
	}
}

// SubjectsWithCount returns the number of subjects carrying (pred, obj)
// facts without materializing the posting list. It is the planner's
// bound-object selectivity probe: one read lock, a binary search and
// two map lookups, zero allocations.
func (g *Graph) SubjectsWithCount(pred PredicateID, obj Value) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.postingLocked(pred, obj.MapKey()).count()
}

// PredicateFrequency returns the current number of triples using pred —
// an O(1) counter read from the predicate-major index, not a sweep.
func (g *Graph) PredicateFrequency(pred PredicateID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, _ := g.predTotalsLocked(pred)
	return n
}

// predTotalsLocked returns the number of (pred, *) facts, and of those
// whose object is an entity. The caller holds the lock.
func (g *Graph) predTotalsLocked(pred PredicateID) (total, entities int) {
	if int(pred) < len(g.base.preds) {
		p := &g.base.preds[pred]
		total, entities = len(p.subjs), p.entities
	}
	if pd := g.pom[pred]; pd != nil {
		total, entities = total+pd.total, entities+pd.entities
	}
	return total, entities
}

// PredicateEntriesFunc streams every (object value, subject) pair indexed
// under pred to fn, in object-key order and within one object by
// subject, stopping early if fn returns false: the base's keys merged
// with the ones only the delta holds, which are the only keys sorted.
// Object values are reconstructed from their identity keys, so
// provenance is not carried. fn runs under the read lock: it must
// not mutate the graph or read its triple indexes; it may read the
// dictionaries (see Visitor callbacks on Graph).
func (g *Graph) PredicateEntriesFunc(pred PredicateID, fn func(obj Value, subj EntityID) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var old basePred
	if int(pred) < len(g.base.preds) {
		old = g.base.preds[pred]
	}
	pd := g.pom[pred]
	var keys []ValueKey
	if pd != nil {
		for k := range pd.adds {
			if len(g.base.posting(pred, k)) == 0 {
				keys = append(keys, k)
			}
		}
		slices.SortFunc(keys, ValueKey.Compare)
	}
	for i, j := 0, 0; i < len(old.keys) || j < len(keys); {
		var k ValueKey
		var p posting
		if j == len(keys) || i < len(old.keys) && g.base.key(old.keys[i]).Compare(keys[j]) < 0 {
			k, p.base = g.base.key(old.keys[i]), old.subjs[old.off[i]:old.off[i+1]]
			i++
		} else {
			k = keys[j]
			j++
		}
		if pd != nil {
			p.adds, p.dels = pd.adds[k], pd.dels[k]
		}
		obj := k.Value()
		if !p.each(func(s EntityID) bool { return fn(obj, s) }) {
			return
		}
	}
}
