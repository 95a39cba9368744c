package graphengine

import (
	"sort"

	"saga/internal/kg"
)

// Neighbors returns the distinct entities adjacent to id via entity-valued
// facts in either direction, sorted ascending. It reads the cached CSR
// snapshot; the result is a fresh copy the caller may keep.
func (e *Engine) Neighbors(id kg.EntityID) []kg.EntityID {
	nbrs := e.Snapshot().Neighbors(id)
	if len(nbrs) == 0 {
		return nil
	}
	return append([]kg.EntityID(nil), nbrs...)
}

// PersonalizedPageRank computes approximate PPR mass from source using
// power iteration with restart probability alpha over the undirected
// entity graph. Higher mass = more related. iters controls convergence;
// 20 is plenty for ranking purposes.
//
// The iteration runs over the cached CSR snapshot with dense rank arrays
// indexed by entity ID — no lock acquisitions, map builds, or sorts per
// node visit, and O(numEntities) memory.
func (e *Engine) PersonalizedPageRank(source kg.EntityID, alpha float64, iters int) map[kg.EntityID]float64 {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.15
	}
	snap := e.Snapshot()
	n := len(snap.offsets) - 1
	if int(source) >= n {
		// Source has no adjacency row: all mass stays at the source.
		return map[kg.EntityID]float64{source: 1}
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	rank[source] = 1
	for it := 0; it < iters; it++ {
		clear(next)
		next[source] += alpha
		for u, r := range rank {
			if r == 0 {
				continue
			}
			row := snap.nbrs[snap.offsets[u]:snap.offsets[u+1]]
			if len(row) == 0 {
				// Dangling mass restarts.
				next[source] += (1 - alpha) * r
				continue
			}
			share := (1 - alpha) * r / float64(len(row))
			for _, v := range row {
				next[v] += share
			}
		}
		rank, next = next, rank
	}
	out := make(map[kg.EntityID]float64)
	for id, r := range rank {
		if r != 0 {
			out[kg.EntityID(id)] = r
		}
	}
	return out
}

// TopRelatedByPPR returns the k highest-PPR entities excluding the source,
// as (entity, score) pairs sorted by descending score. This is the
// traversal-based related-entities baseline of experiment E3.
func (e *Engine) TopRelatedByPPR(source kg.EntityID, k int) []ScoredEntity {
	ppr := e.PersonalizedPageRank(source, 0.15, 15)
	delete(ppr, source)
	out := make([]ScoredEntity, 0, len(ppr))
	for id, s := range ppr {
		out = append(out, ScoredEntity{ID: id, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// ScoredEntity pairs an entity with a relevance score.
type ScoredEntity struct {
	ID    kg.EntityID
	Score float64
}

// CoOccurrence counts how often each entity co-occurs with source across
// the provided walks (excluding the source itself). The counts feed the
// related-entity embedding trainer. The per-walk dedup set is reused
// across walks rather than allocated per walk.
func CoOccurrence(walks [][]kg.EntityID) map[kg.EntityID]int {
	hint := 0
	for _, w := range walks {
		hint += len(w)
	}
	counts := make(map[kg.EntityID]int, hint/2)
	seen := make(map[kg.EntityID]bool, hint/2)
	for _, w := range walks {
		if len(w) == 0 {
			continue
		}
		src := w[0]
		clear(seen)
		for _, v := range w[1:] {
			if v != src && !seen[v] {
				counts[v]++
				seen[v] = true
			}
		}
	}
	return counts
}
