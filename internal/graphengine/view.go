// Package graphengine implements the computational graph engine of the
// Saga platform (Fig 1, Fig 3 of the paper): the filtered scan that is the
// embedding pipeline's training view, conjunctive triple-pattern queries,
// and live subscriptions. The embedding pipeline trains on the view
// scanned here ("we leverage a computational graph engine to generate a
// view of the KG by filtering out non-relevant facts and possible
// noises", §2). Whole-graph analytics (internal/rules) and the walks of
// the related-entity embeddings (internal/embedding) read the graph
// itself; the engine keeps no adjacency of its own.
//
// The training view (ViewDef) is one filtered scan of the graph as it is
// at the call: Scan streams it, Materialize collects it, and the engine
// keeps nothing of it.
//
// The query surface is conjunctive and iterator-first (see stream.go):
// StreamRows and StreamConjunctive yield matches as the planner produces
// them, with one QueryOptions struct for limit push-down, cursor
// pagination, timeouts and context cancellation — the serving-path
// contract, where evaluation cost tracks output consumed. The
// slice-returning QueryConjunctive is a collect-and-sort shim over the
// stream.
//
// # Plan / executor contract
//
// Conjunctive evaluation is split into two layers. The planner
// (plan.go) turns a query into an immutable Plan: a clause execution
// order, one statically chosen access path per step (has_fact probe,
// subject-major facts read, predicate-major posting read, or sorted
// predicate scan), and the build-time cardinality estimates that chose
// the order. The executor (executor.go) runs a Plan depth-first with a
// cursor seek and limit push-down; it never re-plans, and every access
// path enumerates in a canonical key order, so a fixed plan over a fixed
// set of facts always streams the same sequence — however the facts
// arrived.
//
// Plans reference the caller's clauses by index and carry no constant
// values, so the Engine caches them by query shape — predicate IDs plus
// each position's variable-name-or-constant signature (shapeKey). A
// cached plan is revalidated against the graph's predicate counters on
// every hit: if any predicate's frequency has drifted from the plan's
// build-time snapshot by more than 64 AND more than 2x in either
// direction, the plan is invalidated and rebuilt, so a stale clause
// ordering self-corrects without any write-path hook. Cache hits skip
// planning entirely (no FactCount/SubjectsWithCount probes); see
// PlanCacheStats for the hit/miss/invalidation/eviction counters.
package graphengine

import (
	"sync"
	"sync/atomic"

	"saga/internal/kg"
)

// ViewDef declares the training view of §2: the graph's entity-valued
// facts ("filtering out non-relevant facts and possible noises") — literal
// facts such as heights, external IDs and follower counts are "not
// important for learning an embedding for an entity" and never pass —
// less the facts of rare predicates. The zero value keeps every
// entity-valued fact.
type ViewDef struct {
	// MinPredicateFreq drops facts whose predicate occurs fewer than this
	// many times in the graph, literal facts included in the count (§2:
	// rare predicates "could create noise during the learning process").
	MinPredicateFreq int
}

// Engine wraps a graph with query capabilities: the training-view scan,
// conjunctive queries with a plan cache, and live subscriptions. It keeps
// no copy of the graph.
type Engine struct {
	g *kg.Graph

	mu  sync.Mutex
	hub *subHub // lazily created live-subscription dispatcher

	plans *planCache

	// derived, when set (AttachDerived), is the combined base+derived
	// read surface conjunctive solves run against, making derived
	// predicates queryable transparently. Atomic so the hot query path
	// never takes e.mu.
	derived atomic.Pointer[Overlay]
}

// New returns an engine over g.
func New(g *kg.Graph) *Engine {
	return &Engine{
		g:     g,
		plans: newPlanCache(planCacheCapacity),
	}
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *kg.Graph { return e.g }

// Materialize collects what Scan(def) keeps.
func (e *Engine) Materialize(def ViewDef) []kg.Triple {
	var out []kg.Triple
	e.Scan(def, func(t kg.Triple) { out = append(out, t) })
	return out
}

// Scan calls fn with every fact def keeps out of one consistent cut of the
// graph. It is the one read of the training view: the embedding trainer
// collects 12-byte ID records from it.
//
// fn may run inside the graph's read lock and must not call
// back into the graph.
func (e *Engine) Scan(def ViewDef, fn func(kg.Triple)) {
	// A predicate's frequency is complete only at the end of the cut, so
	// under a MinPredicateFreq the candidates wait for it there.
	freq := make(map[kg.PredicateID]int)
	var held []kg.Triple
	e.g.TriplesSnapshot(func(t kg.Triple) bool {
		freq[t.Predicate]++
		if !t.Object.IsEntity() {
			return true
		}
		if def.MinPredicateFreq > 0 {
			held = append(held, t)
		} else {
			fn(t)
		}
		return true
	})
	for _, t := range held {
		if freq[t.Predicate] >= def.MinPredicateFreq {
			fn(t)
		}
	}
}
