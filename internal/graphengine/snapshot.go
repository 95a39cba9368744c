package graphengine

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"saga/internal/kg"
)

// AdjacencySnapshot is an immutable CSR (compressed sparse row) encoding
// of the undirected entity-to-entity graph: for each entity ID the sorted,
// deduplicated, self-loop-free set of entities adjacent via entity-valued
// facts in either direction. Traversals (Neighbors, BFS, PPR, random
// walks) read it lock-free as plain slice indexing instead of re-deriving
// adjacency from the triple indexes under the graph lock on every call.
//
// # Invalidation contract
//
// A snapshot is captured at a mutation-log watermark (Seq): it reflects
// exactly the first Seq mutations of the source graph and nothing later.
// Engine.Snapshot compares the stored watermark against kg.Graph.LastSeq
// and, when the graph has moved past it, rebuilds the snapshot from
// scratch; between mutations, every traversal shares one immutable
// snapshot, published via an atomic pointer. Readers may therefore
// assume a snapshot is internally consistent but at most as fresh as
// the last mutation observed before Snapshot() returned — concurrent
// writers invalidate the *next* acquisition, never mutate an acquired
// snapshot. Entities registered after capture simply have no adjacency
// row (AddEntity does not bump the watermark; an edge reaching a new
// entity requires an Assert, which does).
type AdjacencySnapshot struct {
	seq uint64
	// offsets has len(numRows+1); the neighbors of entity id are
	// nbrs[offsets[id]:offsets[id+1]] for id < numRows.
	offsets []int32
	nbrs    []kg.EntityID
}

// Seq returns the mutation-log watermark the snapshot was captured at.
func (s *AdjacencySnapshot) Seq() uint64 { return s.seq }

// NumEdges returns the number of directed adjacency entries (each
// undirected edge counts twice).
func (s *AdjacencySnapshot) NumEdges() int { return len(s.nbrs) }

// Neighbors returns the sorted distinct entities adjacent to id. The
// returned slice aliases the snapshot's backing array and must be treated
// as read-only.
func (s *AdjacencySnapshot) Neighbors(id kg.EntityID) []kg.EntityID {
	if int(id) >= len(s.offsets)-1 {
		return nil
	}
	return s.nbrs[s.offsets[id]:s.offsets[id+1]]
}

// Degree returns the number of distinct neighbors of id.
func (s *AdjacencySnapshot) Degree(id kg.EntityID) int {
	if int(id) >= len(s.offsets)-1 {
		return 0
	}
	return int(s.offsets[id+1] - s.offsets[id])
}

// RandomWalks generates n random walks of the given length starting at
// source, using rng for reproducibility. Walk steps are plain CSR slice
// lookups; no locks are taken and no per-step allocation happens.
func (s *AdjacencySnapshot) RandomWalks(source kg.EntityID, n, length int, rng *rand.Rand) [][]kg.EntityID {
	walks := make([][]kg.EntityID, 0, n)
	for i := 0; i < n; i++ {
		walk := make([]kg.EntityID, 0, length+1)
		walk = append(walk, source)
		cur := source
		for step := 0; step < length; step++ {
			nbrs := s.Neighbors(cur)
			if len(nbrs) == 0 {
				break
			}
			cur = nbrs[rng.Intn(len(nbrs))]
			walk = append(walk, cur)
		}
		walks = append(walks, walk)
	}
	return walks
}

// BFS returns the shortest hop distance from source to every entity
// within maxDepth hops. The source maps to distance 0.
func (s *AdjacencySnapshot) BFS(source kg.EntityID, maxDepth int) map[kg.EntityID]int {
	dist := map[kg.EntityID]int{source: 0}
	frontier := []kg.EntityID{source}
	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		var next []kg.EntityID
		for _, u := range frontier {
			for _, v := range s.Neighbors(u) {
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

// snapshotCache is the engine-side holder: one immutable snapshot behind
// an atomic pointer, and a mutex serializing rebuilds so concurrent
// readers of a stale snapshot trigger exactly one rebuild.
type snapshotCache struct {
	cur     atomic.Pointer[AdjacencySnapshot]
	rebuild sync.Mutex
}

// Snapshot returns a CSR adjacency snapshot no older than the graph's
// mutation watermark at call time. The fast path is one atomic load plus
// one watermark read. The slow path rebuilds from scratch under a mutex
// and publishes the result for all readers.
func (e *Engine) Snapshot() *AdjacencySnapshot {
	want := e.g.LastSeq()
	if s := e.snap.cur.Load(); s != nil && s.seq == want {
		return s
	}
	e.snap.rebuild.Lock()
	defer e.snap.rebuild.Unlock()
	// Re-check under the rebuild lock: another goroutine may have just
	// built a fresh-enough snapshot.
	if s := e.snap.cur.Load(); s != nil && s.seq >= want {
		return s
	}
	s := buildAdjacencySnapshot(e.g)
	e.snap.cur.Store(s)
	return s
}

// buildAdjacencySnapshot scans the graph's entity-valued triples once
// under the read lock (collecting directed pairs), then builds the CSR
// arrays outside the lock: counting sort into rows, per-row sort, dedup,
// self-loop removal, and offset compaction.
func buildAdjacencySnapshot(g *kg.Graph) *AdjacencySnapshot {
	numRows := g.NumEntities() + 1 // rows indexed by EntityID; index 0 unused
	pairs := make([]kg.EntityID, 0, 1024)
	seq := g.TriplesSnapshot(func(t kg.Triple) bool {
		if t.Object.IsEntity() {
			pairs = append(pairs, t.Subject, t.Object.Entity)
		}
		return true
	})
	// An edge endpoint can exceed NumEntities() only if entities were
	// registered between the count and the scan; widen the row space to
	// whatever the scan actually saw.
	for _, id := range pairs {
		if int(id) >= numRows {
			numRows = int(id) + 1
		}
	}

	counts := make([]int32, numRows+1)
	for i := 0; i < len(pairs); i += 2 {
		s, o := pairs[i], pairs[i+1]
		if s == o {
			continue // self-loops never appear in neighbor sets
		}
		counts[s]++
		counts[o]++
	}
	offsets := make([]int32, numRows+1)
	var total int32
	for id := 0; id < numRows; id++ {
		offsets[id] = total
		total += counts[id]
	}
	offsets[numRows] = total

	nbrs := make([]kg.EntityID, total)
	fill := make([]int32, numRows)
	for i := 0; i < len(pairs); i += 2 {
		s, o := pairs[i], pairs[i+1]
		if s == o {
			continue
		}
		nbrs[offsets[s]+fill[s]] = o
		fill[s]++
		nbrs[offsets[o]+fill[o]] = s
		fill[o]++
	}

	// Sort each row and compact duplicates (parallel edges via different
	// predicates, or symmetric fact pairs) in place, then re-pack.
	packed := nbrs[:0]
	newOffsets := make([]int32, numRows+1)
	for id := 0; id < numRows; id++ {
		row := nbrs[offsets[id]:offsets[id+1]]
		slices.Sort(row)
		newOffsets[id] = int32(len(packed))
		packed = append(packed, slices.Compact(row)...)
	}
	newOffsets[numRows] = int32(len(packed))
	return &AdjacencySnapshot{seq: seq, offsets: newOffsets, nbrs: packed}
}
