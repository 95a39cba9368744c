package graphengine

import "saga/internal/kg"

// AttachDerived installs a set of derived facts (the rule engine's) as
// part of the Engine's read surface: every conjunctive solve
// (StreamConjunctive, PlanConjunctive, subscription residual solves and
// re-verification) runs against the union of the graph and the set from
// now on (see Overlay), so the planner, executor, cursors, subscriptions
// and the HTTP query surface all work over derived predicates unchanged.
// Passing nil detaches. The swap is atomic; in-flight solves keep the
// surface they started with.
//
// The plan cache is shared across the swap: plans cache no results, only
// clause orderings, and their staleness check re-probes whatever surface
// the next solve runs on, so a plan built before the attach self-corrects
// like any other stale plan.
func (e *Engine) AttachDerived(derived *FactSet) {
	if derived == nil {
		e.derived.Store(nil)
		return
	}
	e.derived.Store(Union(e.g, derived))
}

// read returns the Engine's current conjunctive read surface: the bare
// graph, or its union with the derived facts once AttachDerived installed
// them.
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
	g := e.read()
	for _, t := range adds {
		if !g.HasFact(t.Subject, t.Predicate, t.Object) {
			continue // gone again since: nothing to add
		}
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
