package kg

import "sort"

// Stats summarizes the shape of a graph. The ODKE profiler and the view
// builder both consume these summaries.
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
// split come from the predicate-major index's per-predicate totals (one
// pass over the pom stripes), and out-degrees from the spo index's list
// lengths (one pass over each shard's subjects, never touching individual
// triples). Stripes and shards are visited one at a time, so under
// concurrent writers each counter is exact as of the moment its stripe or
// shard was read rather than one all-shard cut — the same freshness
// contract as NumTriples.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Entities:   g.NumEntities(),
		Predicates: g.NumPredicates(),
		PredFreq:   make(map[PredicateID]int),
	}
	for i := range g.pom {
		st := &g.pom[i]
		st.mu.RLock()
		for p, pp := range st.preds {
			s.PredFreq[p] = pp.total
			s.Triples += pp.total
			s.EntityTriples += pp.entityTotal
		}
		st.mu.RUnlock()
	}
	s.LiteralTriples = s.Triples - s.EntityTriples
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for _, bySubj := range sh.spo {
			d := 0
			for _, ts := range bySubj {
				d += len(ts)
			}
			if d > s.MaxOutDegree {
				s.MaxOutDegree = d
			}
		}
		sh.mu.RUnlock()
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
