package graphengine

import (
	"math/rand"
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

// BFS returns the shortest hop distance from source to every entity within
// maxDepth hops (undirected over entity-valued facts). The source maps to
// distance 0.
func (e *Engine) BFS(source kg.EntityID, maxDepth int) map[kg.EntityID]int {
	snap := e.Snapshot()
	dist := map[kg.EntityID]int{source: 0}
	frontier := []kg.EntityID{source}
	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		var next []kg.EntityID
		for _, u := range frontier {
			for _, v := range snap.Neighbors(u) {
				if _, seen := dist[v]; !seen {
					dist[v] = depth
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// PersonalizedPageRank computes approximate PPR mass from source using
// power iteration with restart probability alpha over the undirected
// entity graph. Higher mass = more related. iters controls convergence;
// 20 is plenty for ranking purposes.
//
// The iteration runs over the cached CSR snapshot — no lock acquisitions,
// map builds, or sorts per node visit. On small graphs it uses dense rank
// arrays indexed by entity ID (fastest, O(numEntities) memory); past
// pprDenseLimit entities it switches to sparse map iteration so a
// localized query on a huge graph stays O(touched neighborhood) instead
// of allocating and scanning arrays sized to the whole entity space.
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
	if n <= pprDenseLimit {
		return pprDense(snap, source, alpha, iters)
	}
	return pprSparse(snap, source, alpha, iters)
}

// pprDenseLimit is the entity count above which PersonalizedPageRank
// switches from dense rank arrays to sparse maps. 1<<16 entities keeps
// the dense working set around 1 MiB (two float64 arrays).
const pprDenseLimit = 1 << 16

func pprDense(snap *AdjacencySnapshot, source kg.EntityID, alpha float64, iters int) map[kg.EntityID]float64 {
	n := len(snap.offsets) - 1
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

func pprSparse(snap *AdjacencySnapshot, source kg.EntityID, alpha float64, iters int) map[kg.EntityID]float64 {
	// Two maps swapped and cleared per iteration, mirroring pprDense's
	// array swap: allocating a fresh next map every iteration made the
	// sparse path's allocation cost scale with iters × frontier size.
	rank := map[kg.EntityID]float64{source: 1}
	next := make(map[kg.EntityID]float64, 8)
	for it := 0; it < iters; it++ {
		clear(next)
		next[source] += alpha
		for u, r := range rank {
			row := snap.Neighbors(u)
			if len(row) == 0 {
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
	return rank
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

// RandomWalks generates n random walks of the given length starting at
// source over the undirected entity graph, using rng for reproducibility.
// The embedding pipeline pre-computes these traversals to build
// related-entity training samples (§2's third scalability approach).
// Steps are CSR slice lookups on the cached snapshot.
func (e *Engine) RandomWalks(source kg.EntityID, n, length int, rng *rand.Rand) [][]kg.EntityID {
	return e.Snapshot().RandomWalks(source, n, length, rng)
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
