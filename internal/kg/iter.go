package kg

import "iter"

// Iterator twins of the graph's visitor accessors, for Go 1.24 range-over-
// func consumers. Each returns an iter.Seq that streams the same elements
// the corresponding *Func visitor passes to its callback, in the same
// order and under the same locks: the loop body runs while the relevant
// shard or pom-stripe read lock is held, and breaking out of the range
// stops the enumeration and releases the lock immediately (the early-stop
// the slice accessors cannot offer).
//
// Because the body runs under a read lock, it must not mutate the graph,
// and it must not call back into the triple indexes (Facts, Outgoing,
// HasFact, SubjectsWith, ...): a read on a subject hashing to the same
// shard re-enters the shard's RWMutex, which deadlocks when a writer is
// queued between the two acquisitions (and likewise for a pom stripe).
// Dictionary reads (Entity, Predicate, Ontology) are safe — their lock is
// never held together with a shard lock by any writer. Consumers that
// need to join
// streamed elements against further index reads should use the chunked
// reads (FactsChunked, SubjectsWithChunked — see graphengine's
// conjunctive solver) or the slice accessors.

// FactsSeq streams the (subj, pred) triples in object-key order. It is the
// iterator twin of Facts/FactsFunc.
func (g *Graph) FactsSeq(subj EntityID, pred PredicateID) iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		g.FactsFunc(subj, pred, yield)
	}
}

// OutgoingSeq streams every triple whose subject is subj. Iteration order
// across predicates is unspecified (map order); within one predicate it
// is object-key order. It is the iterator twin of Outgoing/OutgoingFunc.
func (g *Graph) OutgoingSeq(subj EntityID) iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		g.OutgoingFunc(subj, yield)
	}
}

// IncomingSeq streams every triple whose object is the entity obj, one
// shard at a time (each shard's contribution internally consistent, a
// concurrent writer may land between shard visits — see Incoming). It is
// the iterator twin of Incoming/IncomingFunc.
func (g *Graph) IncomingSeq(obj EntityID) iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		g.IncomingFunc(obj, yield)
	}
}

// SubjectsWithSeq streams the posting list of subjects carrying
// (pred, obj) facts under one pom-stripe read lock — posting-list
// iteration with early stop, where SubjectsWith copies the whole list up
// front. Order is ascending subject ID — a function of the facts, not of
// how they arrived. It is the iterator twin of
// SubjectsWith/SubjectsWithFunc.
func (g *Graph) SubjectsWithSeq(pred PredicateID, obj Value) iter.Seq[EntityID] {
	return func(yield func(EntityID) bool) {
		g.SubjectsWithFunc(pred, obj, yield)
	}
}

// PredicateEntriesSeq streams every (object value, subject) pair indexed
// under pred from the predicate-major index. Object values are
// reconstructed from their identity keys, so provenance is not carried
// and iteration order across objects is unspecified; within one object's
// posting list it is ascending subject ID. It is the iterator twin of
// PredicateEntriesFunc.
func (g *Graph) PredicateEntriesSeq(pred PredicateID) iter.Seq2[Value, EntityID] {
	return func(yield func(Value, EntityID) bool) {
		g.PredicateEntriesFunc(pred, yield)
	}
}

// TriplesSeq streams every asserted triple under the all-shard read lock
// (a single consistent cut, like Triples). Iteration order is unspecified.
func (g *Graph) TriplesSeq() iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		g.Triples(yield)
	}
}
