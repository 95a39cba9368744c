package kg

import "sort"

// Stats summarizes the shape of a graph, for diagnostics.
type Stats struct {
	Entities   int
	Predicates int
	Triples    int
	// EntityTriples counts entity-valued facts; LiteralTriples the rest.
	EntityTriples  int
	LiteralTriples int
	// PredFreq maps predicate -> triple count.
	PredFreq map[PredicateID]int
	// MaxOutDegree is the largest outgoing fact count of any entity.
	MaxOutDegree int
	// MeanOutDegree is Triples / Entities.
	MeanOutDegree float64
}

// ComputeStats summarizes the graph from its maintained counters instead
// of a full triple scan: predicate frequencies and the entity/literal
// split come from the predicate-major index's per-predicate totals, and
// out-degrees from the lengths of the subjects' rows (never touching
// individual triples). It reads under the all-shard cut, so the counters
// are of one consistent state.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Entities:   g.NumEntities(),
		Predicates: g.NumPredicates(),
		PredFreq:   make(map[PredicateID]int),
	}
	g.rlockAll()
	defer g.runlockAll()
	for p := PredicateID(1); int64(p) < g.predLen.Load(); p++ {
		st := g.pomStripe(p)
		st.mu.RLock()
		total, entities := g.predTotalsLocked(st, p)
		st.mu.RUnlock()
		if total > 0 {
			s.PredFreq[p] = total
			s.Triples += total
			s.EntityTriples += entities
		}
	}
	s.LiteralTriples = s.Triples - s.EntityTriples
	for subj := EntityID(1); int64(subj) < g.entLen.Load(); subj++ {
		s.MaxOutDegree = max(s.MaxOutDegree, countRows(g.layersLocked(g.shard(subj), subj, NoPredicate)))
	}
	if s.Entities > 0 {
		s.MeanOutDegree = float64(s.Triples) / float64(s.Entities)
	}
	return s
}

// RarePredicates returns the predicates whose triple frequency is strictly
// below minFreq, sorted by ID. Per §2 of the paper, triples with rare
// predicates "could create noise during the learning process and filtering
// them out can produce a cleaner training set".
func (s Stats) RarePredicates(minFreq int) []PredicateID {
	var out []PredicateID
	for p, n := range s.PredFreq {
		if n < minFreq {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TopPredicates returns the k most frequent predicates, most frequent first.
func (s Stats) TopPredicates(k int) []PredicateID {
	type pf struct {
		p PredicateID
		n int
	}
	all := make([]pf, 0, len(s.PredFreq))
	for p, n := range s.PredFreq {
		all = append(all, pf{p, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].p < all[j].p
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]PredicateID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].p
	}
	return out
}
