package rules

import (
	"fmt"
	"slices"

	"saga/internal/kg"
)

// In-graph analytics: whole-graph algorithms that materialize their
// result as facts of a derived predicate — connected components and
// sameAs closure by union-find over the predicate postings, k-hop
// reachability over the graph's own reads; no pass keeps a copy of the
// graph. The output predicate behaves exactly like a rule head for
// readers — queryable through every surface, usable in rule bodies
// (propagation and cascades treat analytics facts like base facts) —
// but its contents are replaced wholesale by each Derive* call and go
// stale in between: DeriveReport.Watermark records the graph sequence
// the result reflects.

// DeriveReport describes one analytics materialization.
type DeriveReport struct {
	// Facts is the number of facts the output predicate now holds.
	Facts int
	// Watermark is the graph mutation sequence when the pass began. Every
	// pass reads the graph one posting or one entity at a time, so writes
	// racing it may be partly reflected.
	Watermark uint64
}

// DeriveComponents materializes the connected components of the
// undirected entity-to-entity graph (every predicate's entity-valued
// facts, self-loops left out) under the out predicate: one fact
// (member, out, representative) per entity with at least one edge, where
// the representative is the smallest entity ID in the component. Facts
// are emitted in ascending member order. Entities registered after the
// pass began are left out; so are their edges.
func (e *Engine) DeriveComponents(out kg.PredicateID) (DeriveReport, error) {
	if err := e.checkExternal(out); err != nil {
		return DeriveReport{}, err
	}
	wm := e.g.LastSeq()
	n := e.g.NumEntities()
	f := make(forest, n+1)
	for p := kg.PredicateID(1); int(p) <= e.g.NumPredicates(); p++ {
		e.g.PredicateEntriesFunc(p, func(obj kg.Value, subj kg.EntityID) bool {
			if !obj.IsEntity() {
				return false // entity objects sort first: the rest are literals
			}
			if obj.Entity != subj && int(max(subj, obj.Entity)) <= n {
				f.union(subj, obj.Entity)
			}
			return true
		})
	}
	facts := f.facts(out)
	e.replaceExternal(out, facts)
	return DeriveReport{Facts: len(facts), Watermark: wm}, nil
}

// DeriveSameAsClosure materializes the equivalence closure of the src
// predicate's base entity-to-entity facts under out: every entity that
// occurs in a src edge gets one fact (entity, out, canonical) where
// canonical is the smallest entity ID of its equivalence class (the
// class representative maps to itself). A self-loop makes its entity a
// member. Facts are emitted in ascending entity order. Entities
// registered after the pass began are left out; so are their edges.
func (e *Engine) DeriveSameAsClosure(src, out kg.PredicateID) (DeriveReport, error) {
	if src == kg.NoPredicate {
		return DeriveReport{}, fmt.Errorf("rules: sameas closure: source predicate required")
	}
	if err := e.checkExternal(out); err != nil {
		return DeriveReport{}, err
	}
	wm := e.g.LastSeq()
	n := e.g.NumEntities()
	f := make(forest, n+1)
	e.g.PredicateEntriesFunc(src, func(obj kg.Value, subj kg.EntityID) bool {
		if !obj.IsEntity() {
			return false // entity objects sort first: the rest are literals
		}
		if int(max(subj, obj.Entity)) <= n {
			f.union(subj, obj.Entity)
		}
		return true
	})
	facts := f.facts(out)
	e.replaceExternal(out, facts)
	return DeriveReport{Facts: len(facts), Watermark: wm}, nil
}

// forest is a union-find over entity IDs, indexed by ID: f[x] is x's
// parent, or 0 while x is in no set.
type forest []kg.EntityID

// union joins the sets of a and b, entering either that is in none. The
// smaller root wins, so every root is its set's minimum.
func (f forest) union(a, b kg.EntityID) {
	if f[a] == 0 {
		f[a] = a
	}
	if f[b] == 0 {
		f[b] = b
	}
	ra, rb := f.find(a), f.find(b)
	if rb < ra {
		ra, rb = rb, ra
	}
	f[rb] = ra
}

// find returns the root of x's set, pointing every node on the way at
// it. x must be in a set.
func (f forest) find(x kg.EntityID) kg.EntityID {
	root := x
	for f[root] != root {
		root = f[root]
	}
	for f[x] != root {
		f[x], x = root, f[x]
	}
	return root
}

// facts returns one fact (x, out, root of x) for each x in a set, in
// ascending x.
func (f forest) facts(out kg.PredicateID) []kg.Triple {
	var members int
	for _, p := range f {
		if p != 0 {
			members++
		}
	}
	facts := make([]kg.Triple, 0, members)
	for x, p := range f {
		if p != 0 {
			facts = append(facts, kg.Triple{Subject: kg.EntityID(x), Predicate: out, Object: kg.EntityValue(f.find(kg.EntityID(x)))})
		}
	}
	return facts
}

// DeriveKHop materializes k-hop reachability under out: one fact
// (source, out, node) for every node within 1..k hops of a source over
// the undirected entity-to-entity graph, the source itself excluded.
// Facts are emitted in ascending (source, node) order.
//
// The BFS reads the graph, so a reach costs the entries it touches: a
// node's neighbors are its outgoing entity objects and, for each
// predicate holding facts, the subjects of its (predicate, node)
// posting. Each read takes its own lock, so writes racing the pass may
// be partly reflected; the report's Watermark is the graph's watermark
// when the pass began.
func (e *Engine) DeriveKHop(out kg.PredicateID, sources []kg.EntityID, k int) (DeriveReport, error) {
	if k <= 0 {
		return DeriveReport{}, fmt.Errorf("rules: khop: k must be positive")
	}
	if len(sources) == 0 {
		return DeriveReport{}, fmt.Errorf("rules: khop: at least one source required")
	}
	if err := e.checkExternal(out); err != nil {
		return DeriveReport{}, err
	}
	wm := e.g.LastSeq()
	var preds []kg.PredicateID
	for p := kg.PredicateID(1); int(p) <= e.g.NumPredicates(); p++ {
		if e.g.PredicateFrequency(p) > 0 {
			preds = append(preds, p)
		}
	}
	srcs := append([]kg.EntityID(nil), sources...)
	slices.Sort(srcs)
	// seen[v] is the stamp of the last BFS that reached v (1 + its
	// source's index in srcs), so no BFS clears it for the next one.
	// reached holds one BFS: the source, then each level in turn.
	seen := make([]int32, e.g.NumEntities()+1)
	var stamp int32
	var reached []kg.EntityID
	visit := func(v kg.EntityID) bool {
		if int(v) >= len(seen) { // registered after the pass began
			seen = append(seen, make([]int32, int(v)+1-len(seen))...)
		}
		if seen[v] != stamp {
			seen[v] = stamp
			reached = append(reached, v)
		}
		return true
	}
	visitObject := func(t kg.Triple) bool {
		return !t.Object.IsEntity() || visit(t.Object.Entity)
	}
	var facts []kg.Triple
	for i, src := range srcs {
		if i > 0 && srcs[i-1] == src {
			continue
		}
		stamp = int32(i + 1)
		reached = reached[:0]
		visit(src)
		for depth, lo := 0, 0; depth < k && lo < len(reached); depth++ {
			hi := len(reached)
			for _, u := range reached[lo:hi] {
				e.g.OutgoingFunc(u, visitObject)
				for _, p := range preds {
					e.g.SubjectsWithFunc(p, kg.EntityValue(u), visit)
				}
			}
			lo = hi
		}
		slices.Sort(reached[1:])
		facts = slices.Grow(facts, len(reached)-1)
		for _, w := range reached[1:] {
			facts = append(facts, kg.Triple{Subject: src, Predicate: out, Object: kg.EntityValue(w)})
		}
	}
	e.replaceExternal(out, facts)
	return DeriveReport{Facts: len(facts), Watermark: wm}, nil
}

// checkExternal validates an analytics output predicate. A rule head
// cannot double as an analytics output — the two maintenance regimes
// (fixpoint vs wholesale replacement) would fight over the same facts.
func (e *Engine) checkExternal(out kg.PredicateID) error {
	if out == kg.NoPredicate {
		return fmt.Errorf("rules: analytics: output predicate required")
	}
	if e.g.Predicate(out) == nil {
		return fmt.Errorf("rules: analytics: predicate %d is not registered in the graph", out)
	}
	if e.rs.IsHead(out) {
		return fmt.Errorf("rules: analytics: predicate %d is a rule head", out)
	}
	return nil
}

// replaceExternal swaps the out predicate's stored facts for the given
// set, diffing against the previous materialization: removed facts run
// through the same cascade + rederive machinery as base retracts (rules
// may consume analytics predicates in their bodies), added facts seed
// the propagation worklist, and the net visibility deltas reach the
// subscription hub.
func (e *Engine) replaceExternal(out kg.PredicateID, facts []kg.Triple) {
	e.mu.Lock()
	defer e.mu.Unlock()
	oldKeys := make(map[kg.TripleKey]kg.Triple)
	e.st.each(out, func(t kg.Triple) { oldKeys[t.IdentityKey()] = t })
	var adds, rets []kg.Triple
	var work []kg.Triple
	for _, t := range facts {
		k := t.IdentityKey()
		if _, had := oldKeys[k]; had {
			delete(oldKeys, k)
			continue
		}
		if e.st.insert(t, support{rule: externalRule}) {
			e.derivations.Add(1)
			if !e.g.HasFact(t.Subject, t.Predicate, t.Object) {
				adds = append(adds, t)
			}
			work = append(work, t)
		}
	}
	adds = e.propagateLocked(work, adds)
	// Removed facts run the base-retract flow: remove the stored copy,
	// cascade dependents, one repair pass over the union of the damage.
	// No rule has this head predicate, so the removed facts themselves
	// are never reinstated.
	pending := make(map[kg.TripleKey]kg.Triple)
	for k := range oldKeys {
		e.cascadeLocked(k, pending)
	}
	adds, rets = e.rederivePendingLocked(pending, adds, rets)
	e.notifyLocked(adds, rets)
}
