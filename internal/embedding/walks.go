package embedding

import (
	"math/rand"
	"slices"
	"sort"

	"saga/internal/kg"
	"saga/internal/vecindex"
)

// Traversal-based related-entity embeddings (§2): "for specialized
// related entity embeddings we use the scalable graph processing
// capabilities of our graph engine to pre-compute graph traversals."
//
// The construction: random walks from each entity over the undirected
// entity graph, read once per training into an adjacency of its own;
// each entity's embedding is the normalized sum of pseudo-random feature
// vectors of its walk co-occurrers, weighted by co-occurrence count.
// Entities whose neighbourhood distributions overlap get high cosine
// similarity (this is a random-projection sketch of the walk
// co-occurrence matrix, so similarity is preserved in expectation).

// WalkEmbedConfig configures TrainWalkEmbeddings.
type WalkEmbedConfig struct {
	// Dim is the output embedding dimensionality; default 64.
	Dim int
	// WalksPerNode is the number of pre-computed walks per source entity;
	// default 20.
	WalksPerNode int
	// WalkLength is the number of hops per walk; default 4.
	WalkLength int
	// Seed makes both walks and feature vectors reproducible.
	Seed int64
}

func (c *WalkEmbedConfig) setDefaults() {
	if c.Dim <= 0 {
		c.Dim = 64
	}
	if c.WalksPerNode <= 0 {
		c.WalksPerNode = 20
	}
	if c.WalkLength <= 0 {
		c.WalkLength = 4
	}
}

// TrainWalkEmbeddings computes related-entity embeddings for the given
// entities over g as it is at the call. Entities with no neighbours get a
// zero vector.
func TrainWalkEmbeddings(g *kg.Graph, entities []kg.EntityID, cfg WalkEmbedConfig) map[kg.EntityID]vecindex.Vector {
	cfg.setDefaults()
	out := make(map[kg.EntityID]vecindex.Vector, len(entities))
	// One adjacency for the whole training: every source walks the same
	// consistent cut of the graph.
	adj := buildAdjacency(g)
	var order []kg.EntityID
	for _, src := range entities {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(src)*0x9E3779B9))
		walks := adj.randomWalks(src, cfg.WalksPerNode, cfg.WalkLength, rng)
		co := coOccurrence(walks)
		// Accumulate co-occurrers in sorted order: float32 addition is
		// order-sensitive, and summing in map-iteration order (randomized
		// per process) would make identically seeded runs drift in the
		// low bits.
		order = order[:0]
		for other := range co {
			order = append(order, other)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		vec := make(vecindex.Vector, cfg.Dim)
		for _, other := range order {
			feat := featureVector(other, cfg.Dim, cfg.Seed)
			w := float32(co[other])
			for i := range vec {
				vec[i] += w * feat[i]
			}
		}
		out[src] = vecindex.Normalize(vec)
	}
	return out
}

// adjacency is the undirected entity-to-entity graph the walks step
// through: row id holds id's distinct neighbours in ascending order,
// via entity-valued facts in either direction, self-loops left out.
type adjacency [][]kg.EntityID

// buildAdjacency reads g's entity-valued facts in one consistent cut.
func buildAdjacency(g *kg.Graph) adjacency {
	adj := make(adjacency, g.NumEntities()+1)
	g.TriplesSnapshot(func(t kg.Triple) bool {
		s, o := t.Subject, t.Object.Entity
		if !t.Object.IsEntity() || s == o {
			return true
		}
		if top := int(max(s, o)); top >= len(adj) { // registered since the count
			adj = append(adj, make(adjacency, top+1-len(adj))...)
		}
		adj[s] = append(adj[s], o)
		adj[o] = append(adj[o], s)
		return true
	})
	for id, row := range adj {
		slices.Sort(row)
		adj[id] = slices.Compact(row)
	}
	return adj
}

// randomWalks generates n random walks of up to length steps from source,
// drawing each step from rng. A walk stops early at a node with no
// neighbours, or with no row: one registered after the adjacency was built.
func (a adjacency) randomWalks(source kg.EntityID, n, length int, rng *rand.Rand) [][]kg.EntityID {
	walks := make([][]kg.EntityID, 0, n)
	for i := 0; i < n; i++ {
		walk := make([]kg.EntityID, 0, length+1)
		walk = append(walk, source)
		cur := source
		for step := 0; step < length && int(cur) < len(a) && len(a[cur]) > 0; step++ {
			nbrs := a[cur]
			cur = nbrs[rng.Intn(len(nbrs))]
			walk = append(walk, cur)
		}
		walks = append(walks, walk)
	}
	return walks
}

// coOccurrence counts, for each entity, the walks it occurs in; a walk's
// first entity, its source, is not counted. The per-walk dedup set is
// reused across walks.
func coOccurrence(walks [][]kg.EntityID) map[kg.EntityID]int {
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

// featureVector returns the deterministic pseudo-random ±1/sqrt(d) sign
// vector for an entity. Sign vectors give an unbiased Johnson-
// Lindenstrauss style sketch of the co-occurrence matrix.
func featureVector(id kg.EntityID, dim int, seed int64) vecindex.Vector {
	rng := rand.New(rand.NewSource(seed ^ (int64(id)+1)*0x517CC1B7))
	v := make(vecindex.Vector, dim)
	scale := float32(1)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = scale
		} else {
			v[i] = -scale
		}
	}
	return v
}
