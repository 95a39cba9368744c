// Package graphengine implements the computational graph engine of the
// Saga platform (Fig 1, Fig 3 of the paper): declarative view definitions
// that filter the KG into task-specific training views, conjunctive
// triple-pattern queries, graph traversals (BFS, random walks), and personalized
// PageRank. The embedding pipeline trains on views produced here ("we
// leverage a computational graph engine to generate a view of the KG by
// filtering out non-relevant facts and possible noises", §2), and the
// related-entities model consumes pre-computed traversals ("use the
// scalable graph processing capabilities of our graph engine to
// pre-compute graph traversals", §2).
//
// Materialize builds a fresh View on every call and the engine keeps no
// registry of them: a caller that wants a view maintained holds it and
// calls Refresh; a caller that wants the filtered facts once calls Scan.
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
	"sort"
	"sync"
	"sync/atomic"

	"saga/internal/kg"
)

// ViewDef declares a filtered view of the knowledge graph. The zero value
// keeps every triple; fields progressively restrict it.
type ViewDef struct {
	// DropLiteralFacts removes literal-valued facts (heights, external IDs,
	// follower counts): the paper's canonical example of facts that are
	// "not important for learning an embedding for an entity" (§2).
	DropLiteralFacts bool
	// DropEntityFacts removes entity-valued facts (rarely useful alone,
	// but lets views isolate literal facts for e.g. extraction training).
	DropEntityFacts bool
	// MinPredicateFreq drops triples whose predicate occurs fewer than
	// this many times in the source graph (§2: rare predicates "could
	// create noise during the learning process").
	MinPredicateFreq int
	// ExcludePredicates drops specific predicates (e.g. national-library
	// IDs) regardless of frequency.
	ExcludePredicates map[kg.PredicateID]bool
	// IncludePredicates, when non-nil, keeps only these predicates.
	IncludePredicates map[kg.PredicateID]bool
	// SubjectType, when non-zero, keeps only triples whose subject has
	// (or inherits) this ontology type.
	SubjectType kg.TypeID
	// MinConfidence drops triples whose provenance confidence is lower.
	MinConfidence float64
}

// View is a materialized filtered snapshot of the graph, maintained
// incrementally from the graph's mutation log. Views are safe for
// concurrent use.
type View struct {
	def ViewDef

	mu      sync.RWMutex
	g       *kg.Graph
	triples []kg.Triple
	keys    map[kg.TripleKey]int // SPO identity -> index in triples
	// predFreq is every predicate's frequency in the graph as of seq, for
	// MinPredicateFreq decisions.
	predFreq map[kg.PredicateID]int
	seq      uint64 // last applied mutation sequence
}

// Engine wraps a graph with query capabilities, plus a cached CSR
// adjacency snapshot (see AdjacencySnapshot) that traversals read
// lock-free and that is invalidated by the graph's mutation watermark.
// It builds views (Materialize) but registers none: every view belongs to
// the caller that asked for it.
type Engine struct {
	g *kg.Graph

	mu  sync.Mutex
	hub *subHub // lazily created live-subscription dispatcher

	snap  snapshotCache
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

// Materialize builds a new view of def from a fresh consistent cut of the
// graph. The engine does not keep it: the caller holds the view and calls
// Refresh to bring it up to date.
func (e *Engine) Materialize(def ViewDef) *View {
	v := &View{def: def, g: e.g}
	v.rematerializeLocked() // v is not published yet: no lock needed
	return v
}

// Scan calls fn with every triple that def keeps out of one consistent
// cut of the graph, without building a View, and returns the cut's
// watermark. It is the read for a consumer that wants the filtered facts
// once — the embedding trainer collects 12-byte ID records from it — and
// the pass every View is materialized from.
//
// fn may run inside the graph's all-shard read lock and must not call
// back into the graph.
func (e *Engine) Scan(def ViewDef, fn func(kg.Triple)) (seq uint64) {
	_, seq = scan(e.g, &def, fn)
	return seq
}

func scan(g *kg.Graph, def *ViewDef, fn func(kg.Triple)) (predFreq map[kg.PredicateID]int, seq uint64) {
	predFreq = make(map[kg.PredicateID]int)
	// The clauses that read only the triple are applied inside the cut.
	// The other two wait for its end, buffering their candidates: a
	// predicate's frequency is complete only then, and a SubjectType
	// lookup takes the dictionary lock once per candidate, which would
	// stretch the all-shard cut writers wait behind.
	late := def.MinPredicateFreq > 0 || def.SubjectType != kg.NoType
	var held []kg.Triple
	// Frequencies are tallied in the same lock window as the triples and
	// the watermark: a separate frequency pass would let a concurrent
	// writer slip a mutation in between, skewing predFreq against the
	// watermark Refresh resumes from.
	seq = g.TriplesSnapshot(func(t kg.Triple) bool {
		predFreq[t.Predicate]++
		if !def.keepsFact(t) {
			return true
		}
		if late {
			held = append(held, t)
		} else {
			fn(t)
		}
		return true
	})
	for _, t := range held {
		if def.keepsInContext(g, predFreq, t) {
			fn(t)
		}
	}
	return predFreq, seq
}

// keepsFact is the part of the view predicate that reads only the triple.
func (d *ViewDef) keepsFact(t kg.Triple) bool {
	if d.DropLiteralFacts && t.Object.IsLiteral() {
		return false
	}
	if d.DropEntityFacts && t.Object.IsEntity() {
		return false
	}
	if d.ExcludePredicates != nil && d.ExcludePredicates[t.Predicate] {
		return false
	}
	if d.IncludePredicates != nil && !d.IncludePredicates[t.Predicate] {
		return false
	}
	return d.MinConfidence <= 0 || t.Prov.Confidence >= d.MinConfidence
}

// keepsInContext is the rest of the view predicate: the clauses that read
// the predicate frequencies or the graph's dictionaries.
func (d *ViewDef) keepsInContext(g *kg.Graph, predFreq map[kg.PredicateID]int, t kg.Triple) bool {
	if d.MinPredicateFreq > 0 && predFreq[t.Predicate] < d.MinPredicateFreq {
		return false
	}
	if d.SubjectType == kg.NoType {
		return true
	}
	ent := g.Entity(t.Subject)
	if ent == nil {
		return false
	}
	for _, ty := range ent.Types {
		if g.Ontology().IsA(ty, d.SubjectType) {
			return true
		}
	}
	return false
}

// Refresh applies all graph mutations since the view's last refresh. This
// is the incremental maintenance path: the static knowledge asset of §5
// ("the view is automatically maintained and can be shipped to devices")
// uses exactly this mechanism.
//
// A refreshed view holds what a fresh Materialize would. Two cases are
// beyond a fact-at-a-time update and fall back to a full
// re-materialization, returning the rebuilt view's size: log compaction
// (kg.Graph.TruncateLog — the durability layer's checkpoint hook) has
// dropped entries past the view's watermark, or the batch moves a
// predicate across MinPredicateFreq, which admits or drops every fact of
// that predicate, old ones included.
func (v *View) Refresh() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	feed := v.g.Feed(v.seq)
	muts, complete := feed.Pull()
	if !complete || v.applyFreqsLocked(muts) {
		return v.rematerializeLocked()
	}
	v.seq = feed.Cursor()
	applied := 0
	for _, m := range muts {
		switch m.Op {
		case kg.OpAssert:
			// Judged against the batch's final frequencies, as a fresh
			// materialization would judge it.
			if !v.def.keepsFact(m.T) || !v.def.keepsInContext(v.g, v.predFreq, m.T) {
				continue
			}
			key := m.T.IdentityKey()
			if _, dup := v.keys[key]; dup {
				continue
			}
			v.keys[key] = len(v.triples)
			v.triples = append(v.triples, m.T)
			applied++
		case kg.OpRetract:
			key := m.T.IdentityKey()
			idx, ok := v.keys[key]
			if !ok {
				continue
			}
			last := len(v.triples) - 1
			if idx != last {
				v.triples[idx] = v.triples[last]
				v.keys[v.triples[idx].IdentityKey()] = idx
			}
			v.triples = v.triples[:last]
			delete(v.keys, key)
			applied++
		}
	}
	return applied
}

// applyFreqsLocked moves predFreq by the batch and reports whether any
// predicate ends it on the other side of MinPredicateFreq from where it
// started. Caller holds v.mu.
func (v *View) applyFreqsLocked(muts []kg.Mutation) (crossed bool) {
	floor := v.def.MinPredicateFreq
	var start map[kg.PredicateID]int
	if floor > 0 {
		start = make(map[kg.PredicateID]int)
	}
	for _, m := range muts {
		p := m.T.Predicate
		if _, seen := start[p]; start != nil && !seen {
			start[p] = v.predFreq[p]
		}
		if m.Op == kg.OpAssert {
			v.predFreq[p]++
		} else {
			v.predFreq[p]--
		}
	}
	for p, f := range start {
		if (f >= floor) != (v.predFreq[p] >= floor) {
			return true
		}
	}
	return false
}

// rematerializeLocked (re)builds the view from a fresh consistent cut of
// the graph. Caller holds v.mu.
func (v *View) rematerializeLocked() int {
	v.triples = nil
	v.keys = make(map[kg.TripleKey]int)
	v.predFreq, v.seq = scan(v.g, &v.def, func(t kg.Triple) {
		v.keys[t.IdentityKey()] = len(v.triples)
		v.triples = append(v.triples, t)
	})
	return len(v.triples)
}

// Triples returns a copy of the view's triples.
func (v *View) Triples() []kg.Triple {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]kg.Triple, len(v.triples))
	copy(out, v.triples)
	return out
}

// Len returns the number of triples in the view.
func (v *View) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.triples)
}

// Contains reports whether the view holds the fact.
func (v *View) Contains(t kg.Triple) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.keys[t.IdentityKey()]
	return ok
}

// EntityIDs returns the sorted set of entity IDs appearing in the view as
// subject or entity-valued object. The embedding trainer uses this as its
// vocabulary.
func (v *View) EntityIDs() []kg.EntityID {
	v.mu.RLock()
	defer v.mu.RUnlock()
	set := make(map[kg.EntityID]struct{})
	for _, t := range v.triples {
		set[t.Subject] = struct{}{}
		if t.Object.IsEntity() {
			set[t.Object.Entity] = struct{}{}
		}
	}
	out := make([]kg.EntityID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PredicateIDs returns the sorted set of predicates appearing in the view.
func (v *View) PredicateIDs() []kg.PredicateID {
	v.mu.RLock()
	defer v.mu.RUnlock()
	set := make(map[kg.PredicateID]struct{})
	for _, t := range v.triples {
		set[t.Predicate] = struct{}{}
	}
	out := make([]kg.PredicateID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
