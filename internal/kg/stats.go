package kg

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
// individual triples). It reads under one read-lock hold, so the
// counters are of one consistent state.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Entities:   g.NumEntities(),
		Predicates: g.NumPredicates(),
		PredFreq:   make(map[PredicateID]int),
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	for p := PredicateID(1); int(p) < g.preds.len(); p++ {
		total, entities := g.predTotalsLocked(p)
		if total > 0 {
			s.PredFreq[p] = total
			s.Triples += total
			s.EntityTriples += entities
		}
	}
	s.LiteralTriples = s.Triples - s.EntityTriples
	for subj := EntityID(1); int(subj) < g.ents.len(); subj++ {
		s.MaxOutDegree = max(s.MaxOutDegree, countRows(g.layersLocked(subj, NoPredicate)))
	}
	if s.Entities > 0 {
		s.MeanOutDegree = float64(s.Triples) / float64(s.Entities)
	}
	return s
}
