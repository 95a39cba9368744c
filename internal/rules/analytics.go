package rules

import (
	"fmt"
	"slices"
	"sort"

	"saga/internal/kg"
)

// In-graph analytics: whole-graph algorithms that materialize their
// result as facts of a derived predicate — connected components over the
// engine's CSR adjacency snapshot, sameAs closure over the predicate
// index, k-hop reachability over the graph's own reads. The
// output predicate behaves exactly like a rule head for readers —
// queryable through every surface, usable in rule bodies (propagation
// and cascades treat analytics facts like base facts) — but its
// contents are replaced wholesale by each Derive* call and go stale in
// between: DeriveReport.Watermark records the graph sequence the result
// reflects.

// DeriveReport describes one analytics materialization.
type DeriveReport struct {
	// Facts is the number of facts the output predicate now holds.
	Facts int
	// Watermark is the graph mutation sequence the derivation reflects.
	// For DeriveKHop it is the watermark when the pass began: writes
	// racing the pass may be partly reflected.
	Watermark uint64
}

// DeriveComponents materializes connected components of the engine's
// adjacency snapshot (undirected, all entity-to-entity edges) under the
// out predicate: one fact (member, out, representative) per entity with
// at least one edge, where the representative is the smallest entity ID
// in the component. Facts are emitted in ascending member order.
func (e *Engine) DeriveComponents(out kg.PredicateID) (DeriveReport, error) {
	if err := e.checkExternal(out); err != nil {
		return DeriveReport{}, err
	}
	snap := e.geng.Snapshot()
	n := e.g.NumEntities()
	label := make([]kg.EntityID, n+1)
	var stack []kg.EntityID
	facts := make([]kg.Triple, 0, n)
	// Ascending seed order makes the first unvisited node of each
	// component its minimum ID, so the seed is the representative.
	for id := kg.EntityID(1); int(id) <= n; id++ {
		if label[id] != 0 || snap.Degree(id) == 0 {
			continue
		}
		rep := id
		label[id] = rep
		stack = append(stack[:0], id)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range snap.Neighbors(v) {
				if int(w) > n || label[w] != 0 {
					continue
				}
				label[w] = rep
				stack = append(stack, w)
			}
		}
	}
	for id := kg.EntityID(1); int(id) <= n; id++ {
		if label[id] == 0 {
			continue
		}
		facts = append(facts, kg.Triple{Subject: id, Predicate: out, Object: kg.EntityValue(label[id])})
	}
	e.replaceExternal(out, facts)
	return DeriveReport{Facts: len(facts), Watermark: snap.Seq()}, nil
}

// DeriveSameAsClosure materializes the equivalence closure of the src
// predicate's base entity-to-entity facts under out: every entity that
// occurs in a src edge gets one fact (entity, out, canonical) where
// canonical is the smallest entity ID of its equivalence class (the
// class representative maps to itself). Facts are emitted in ascending
// entity order.
func (e *Engine) DeriveSameAsClosure(src, out kg.PredicateID) (DeriveReport, error) {
	if src == kg.NoPredicate {
		return DeriveReport{}, fmt.Errorf("rules: sameas closure: source predicate required")
	}
	if err := e.checkExternal(out); err != nil {
		return DeriveReport{}, err
	}
	wm := e.g.LastSeq()
	parent := make(map[kg.EntityID]kg.EntityID)
	var find func(kg.EntityID) kg.EntityID
	find = func(x kg.EntityID) kg.EntityID {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	e.g.PredicateEntriesFunc(src, func(obj kg.Value, subj kg.EntityID) bool {
		if !obj.IsEntity() {
			return true
		}
		ra, rb := find(subj), find(obj.Entity)
		if ra != rb {
			// Union by ID: the smaller root wins, so every root is its
			// class minimum without a second pass.
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
		return true
	})
	members := make([]kg.EntityID, 0, len(parent))
	for m := range parent {
		members = append(members, m)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	facts := make([]kg.Triple, 0, len(members))
	for _, m := range members {
		facts = append(facts, kg.Triple{Subject: m, Predicate: out, Object: kg.EntityValue(find(m))})
	}
	e.replaceExternal(out, facts)
	return DeriveReport{Facts: len(facts), Watermark: wm}, nil
}

// DeriveKHop materializes k-hop reachability under out: one fact
// (source, out, node) for every node within 1..k hops of a source over
// the undirected entity-to-entity graph, the source itself excluded.
// Facts are emitted in ascending (source, node) order.
//
// The BFS reads the graph, not the adjacency snapshot, so a reach costs
// the entries it touches rather than a CSR build after every write: a
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
	for _, t := range e.st.facts.Entries(out) {
		oldKeys[t.IdentityKey()] = t
	}
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
