package graphengine

import (
	"iter"
	"slices"

	"saga/internal/kg"
)

// Derived-predicate read surface. The rules engine (internal/rules)
// maintains derived facts in its own overlay store — they are never
// written into kg.Graph — and exposes them to the query stack through
// DerivedReader. A DerivedView joins the live graph with such a reader
// into one conjGraph, so the planner, executor, cursors, subscriptions,
// and the HTTP query surface all work over derived predicates unchanged:
// AttachDerived swaps the view in as the Engine's read surface.
//
// # Enumeration order
//
// For a derived predicate, every enumeration is the sorted merge of the
// graph's own facts (a head predicate may also carry base facts) with a
// sorted copy of the reader's derived facts, a derived fact the base also
// asserts collapsing into the base's copy (layeredChunks). The reader's
// own list order is irrelevant: the view enumerates in the same canonical
// key order as a base predicate, so cursors over derived predicates
// resume the same way.
//
// # Locking
//
// DerivedReader methods return copies (or answer point probes) and must
// not hold reader-internal locks while calling back into the caller:
// the executor recurses into further view reads from inside an
// enumeration, so a visitor-callback surface holding an internal RLock
// could deadlock against a queued writer. Copy-out keeps the contract
// simple: no reader lock is ever held while solver code runs.
type DerivedReader interface {
	// IsDerived reports whether the reader maintains this predicate.
	// Readers must answer from an immutable set (rule heads are fixed at
	// construction; analytics predicates register before first use).
	IsDerived(kg.PredicateID) bool
	// DerivedFactCount returns the number of derived (subj, pred, *)
	// facts — a planner estimate probe.
	DerivedFactCount(kg.EntityID, kg.PredicateID) int
	// DerivedSubjectCount returns the number of derived (pred, obj)
	// subjects — a planner estimate probe.
	DerivedSubjectCount(kg.PredicateID, kg.Value) int
	// DerivedFrequency returns the predicate's derived fact count.
	DerivedFrequency(kg.PredicateID) int
	// HasDerivedFact reports membership under SPO identity (MapKey), the
	// same identity the graph's HasFact uses.
	HasDerivedFact(kg.EntityID, kg.PredicateID, kg.Value) bool
	// DerivedFacts returns a copy of the (subj, pred) derived facts, in
	// any order; the caller may reorder it.
	DerivedFacts(kg.EntityID, kg.PredicateID) []kg.Triple
	// DerivedSubjects returns a copy of the (pred, obj) derived subjects,
	// in any order; the caller may reorder it.
	DerivedSubjects(kg.PredicateID, kg.Value) []kg.EntityID
	// DerivedEntries returns a copy of every derived fact under pred, in
	// any order.
	DerivedEntries(kg.PredicateID) []kg.Triple
}

// DerivedView is the union read surface of a live graph and a
// DerivedReader. It implements conjGraph; build one with NewDerivedView
// or implicitly through Engine.AttachDerived. The view itself is
// stateless — freshness is whatever the graph and reader answer at call
// time.
type DerivedView struct {
	g *kg.Graph
	d DerivedReader
}

// NewDerivedView returns the union view of g and d.
func NewDerivedView(g *kg.Graph, d DerivedReader) *DerivedView {
	return &DerivedView{g: g, d: d}
}

// Reader returns the view's derived-fact reader.
func (v *DerivedView) Reader() DerivedReader { return v.d }

// AttachDerived installs d as the Engine's derived-fact source: every
// conjunctive solve (StreamConjunctive, PlanConjunctive, subscription
// residual solves and re-verification) runs against the union of the
// graph and d from now on. Passing nil detaches. The swap is atomic;
// in-flight solves keep the surface they started with.
//
// The plan cache is shared across the swap: plans cache no results, only
// clause orderings, and their staleness check re-probes whatever surface
// the next solve runs on, so a plan built before the attach self-corrects
// like any other stale plan.
func (e *Engine) AttachDerived(d DerivedReader) {
	if d == nil {
		e.derived.Store(nil)
		return
	}
	e.derived.Store(NewDerivedView(e.g, d))
}

// read returns the Engine's current conjunctive read surface: the bare
// graph, or the derived union view once AttachDerived installed one.
func (e *Engine) read() conjGraph {
	if v := e.derived.Load(); v != nil {
		return v
	}
	return e.g
}

// ApplyDerivedDeltas feeds derived-fact visibility changes into the
// Engine's subscription hub, so standing queries over derived predicates
// update live. The rules engine calls this after each maintenance batch
// with the facts that became visible (adds) and invisible (rets) through
// the union view — base-graph mutations must not be passed here, the hub
// consumes those from its own changefeed. A hub that is not running (no
// subscribers) ignores the call.
func (e *Engine) ApplyDerivedDeltas(adds, rets []kg.Triple) {
	if len(adds) == 0 && len(rets) == 0 {
		return
	}
	e.mu.Lock()
	h := e.hub
	e.mu.Unlock()
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 {
		return
	}
	for _, t := range adds {
		for s := range h.byPred[t.Predicate] {
			h.deltaAssertLocked(s, t)
		}
	}
	for _, t := range rets {
		for s := range h.byPred[t.Predicate] {
			h.deltaRetractLocked(s, t)
		}
	}
	for s := range h.subs {
		s.notePendingLocked(s.applied)
	}
}

// UnifyClause matches one clause against a concrete triple and returns
// the variable substitution θ, with the same repeated-variable Equal
// semantics as the executor's bindVar. Exported for the rules engine's
// delta evaluation, which seeds residual solves from mutations exactly
// like the subscription hub does.
func UnifyClause(c Clause, t kg.Triple) (Binding, bool) {
	return unifyClause(c, t)
}

// SubstituteClauses grounds θ's variables into the clauses, leaving the
// remaining variables free. ok is false when θ would place a non-entity
// value in a subject slot — such a conjunction has no rows. Exported for
// the rules engine's delta evaluation.
func SubstituteClauses(clauses []Clause, theta Binding) ([]Clause, bool) {
	return substituteClauses(clauses, theta)
}

// --- conjGraph ----------------------------------------------------------

// FactCount returns base plus derived counts. For a derived predicate
// whose fact is asserted both ways the sum double-counts; the executor
// only uses the count as a planner estimate and capacity hint, never as
// a truncation bound, so overlap cannot drop rows.
func (v *DerivedView) FactCount(subj kg.EntityID, pred kg.PredicateID) int {
	n := v.g.FactCount(subj, pred)
	if v.d.IsDerived(pred) {
		n += v.d.DerivedFactCount(subj, pred)
	}
	return n
}

// SubjectsWithCount returns base plus derived posting sizes (an
// estimate, like FactCount).
func (v *DerivedView) SubjectsWithCount(pred kg.PredicateID, obj kg.Value) int {
	n := v.g.SubjectsWithCount(pred, obj)
	if v.d.IsDerived(pred) {
		n += v.d.DerivedSubjectCount(pred, obj)
	}
	return n
}

// PredicateFrequency returns base plus derived triple counts (an
// estimate, like FactCount).
func (v *DerivedView) PredicateFrequency(pred kg.PredicateID) int {
	n := v.g.PredicateFrequency(pred)
	if v.d.IsDerived(pred) {
		n += v.d.DerivedFrequency(pred)
	}
	return n
}

// HasFact reports membership in the union, exactly.
func (v *DerivedView) HasFact(subj kg.EntityID, pred kg.PredicateID, obj kg.Value) bool {
	if v.g.HasFact(subj, pred, obj) {
		return true
	}
	return v.d.IsDerived(pred) && v.d.HasDerivedFact(subj, pred, obj)
}

// FactsChunked streams the union of the base and derived (subj, pred)
// facts in object-key order, in chunks.
func (v *DerivedView) FactsChunked(subj kg.EntityID, pred kg.PredicateID, chunkSize int, fn func(chunk []kg.Triple) bool) {
	var derived []kg.Triple
	if v.d.IsDerived(pred) {
		derived = v.d.DerivedFacts(subj, pred)
		slices.SortFunc(derived, cmpObject)
	}
	layeredChunks(derived, nil, cmpObject, func(fn func([]kg.Triple) bool) {
		v.g.FactsChunked(subj, pred, chunkSize, fn)
	}, fn)
}

// SubjectsWithChunked streams the union of the base and derived
// (pred, obj) subjects greater than after in ascending ID order, in
// chunks.
func (v *DerivedView) SubjectsWithChunked(pred kg.PredicateID, obj kg.Value, after kg.EntityID, chunkSize int, fn func(chunk []kg.EntityID) bool) {
	var derived []kg.EntityID
	if v.d.IsDerived(pred) {
		derived = v.d.DerivedSubjects(pred, obj)
		slices.Sort(derived)
		derived = derived[upTo(derived, after, cmpEntity):]
	}
	layeredChunks(derived, nil, cmpEntity, func(fn func([]kg.EntityID) bool) {
		v.g.SubjectsWithChunked(pred, obj, after, chunkSize, fn)
	}, fn)
}

// PredicateEntriesFunc streams base entries, then derived entries. Order
// is unspecified, as on the live graph, and a derived fact the base also
// asserts appears twice: the executor's scan sorts and collapses both.
func (v *DerivedView) PredicateEntriesFunc(pred kg.PredicateID, fn func(obj kg.Value, subj kg.EntityID) bool) {
	if !v.d.IsDerived(pred) {
		v.g.PredicateEntriesFunc(pred, fn)
		return
	}
	stopped := false
	v.g.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
		stopped = !fn(obj, subj)
		return !stopped
	})
	if stopped {
		return
	}
	for _, t := range v.d.DerivedEntries(pred) {
		if !fn(t.Object, t.Subject) {
			return
		}
	}
}

// --- Query surface ------------------------------------------------------

// StreamConjunctive evaluates the conjunction against the union view,
// with the same streaming contract as Engine.StreamConjunctive. Planning
// is per call (the view has no plan cache of its own); the rules engine
// solves its residual bodies through here so rule evaluation sees its
// own previously derived facts — the recursion that makes transitive
// closure converge.
func (v *DerivedView) StreamConjunctive(clauses []Clause, opts QueryOptions) iter.Seq2[Binding, error] {
	return streamConjunctive(v, clauses, opts)
}
