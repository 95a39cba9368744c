package graphengine

import (
	"math/rand"
	"slices"
	"sort"
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
// and lazily advances on mismatch — incrementally from the mutation
// delta when it is small, from scratch otherwise; between mutations,
// every traversal shares one immutable snapshot, published via an atomic
// pointer. Readers may therefore assume a snapshot is internally
// consistent but at most as fresh as the last mutation observed before
// Snapshot() returned — concurrent writers invalidate the *next*
// acquisition, never mutate an acquired snapshot. Entities registered
// after capture simply have no adjacency row (AddEntity does not bump
// the watermark; an edge reaching a new entity requires an Assert,
// which does).
type AdjacencySnapshot struct {
	seq uint64
	// offsets has len(numRows+1); the neighbors of entity id are
	// nbrs[offsets[id]:offsets[id+1]] for id < numRows.
	offsets []int32
	nbrs    []kg.EntityID
	// mult records the undirected pairs connected by MORE than one
	// entity-valued triple (count ≥ 2); pairs absent from the map that
	// appear in the rows have exactly one. It is what lets a mutation
	// delta be applied to the rows without consulting the graph: a
	// retract of one of several parallel (u, *, v) facts must leave the
	// neighbor entry in place, and this map knows how many remain.
	// Snapshots that share unchanged rows also share this map; it is
	// cloned copy-on-write when a delta touches it.
	mult map[edgePair]int32
}

// edgePair is an undirected entity pair, normalized so A < B (self-loops
// never form pairs).
type edgePair struct {
	A, B kg.EntityID
}

func pairOf(u, v kg.EntityID) edgePair {
	if u < v {
		return edgePair{A: u, B: v}
	}
	return edgePair{A: v, B: u}
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
// an atomic pointer, a mutex serializing rebuilds so concurrent readers
// of a stale snapshot trigger exactly one rebuild.
type snapshotCache struct {
	cur     atomic.Pointer[AdjacencySnapshot]
	rebuild sync.Mutex
}

// incrementalMaxDeltaFraction gates the incremental maintenance path: the
// delta is applied to the previous CSR arrays only when the pending count
// of adjacency-relevant (entity-valued, non-self-loop) mutations is at
// most this fraction of the snapshot's edge count (denominator of the
// fraction; 4 = delta ≤ 25% of edges). Past that, patching every touched
// row plus copying the rest approaches the cost of a from-scratch
// rebuild, which also re-compacts the arrays. Literal mutations are
// excluded from the count: they can never change adjacency, so even an
// arbitrarily long literal-churn delta (ODKE refreshing heights and
// follower counts) stays on the cheap re-stamp path.
const incrementalMaxDeltaFraction = 4

// Snapshot returns a CSR adjacency snapshot no older than the graph's
// mutation watermark at call time. The fast path is one atomic load plus
// one watermark read. The slow path rebuilds under a mutex and publishes
// the result for all readers — incrementally when the mutation delta
// since the cached snapshot is small relative to its edge count (affected
// rows are recomputed from the graph, untouched row ranges are
// bulk-copied from the previous arrays), from scratch otherwise.
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
	s := advanceAdjacencySnapshot(e.g, e.snap.cur.Load())
	e.snap.cur.Store(s)
	return s
}

// advanceAdjacencySnapshot brings prev (possibly nil) up to the graph's
// current watermark, choosing between incremental delta application and a
// full rebuild.
func advanceAdjacencySnapshot(g *kg.Graph, prev *AdjacencySnapshot) *AdjacencySnapshot {
	if prev == nil {
		return buildAdjacencySnapshot(g)
	}
	// Snapshots are immutable, so the feed is transient: positioned at the
	// previous snapshot's watermark, pulled once. An incomplete pull means
	// log compaction has discarded entries in (prev.seq, now] — the
	// changefeed's rematerialization fallback, which here is a full
	// rebuild.
	muts, complete := g.Feed(prev.seq).Pull()
	if !complete {
		return buildAdjacencySnapshot(g)
	}
	relevant := 0
	for _, m := range muts {
		if m.T.Object.IsEntity() && m.T.Subject != m.T.Object.Entity {
			relevant++
		}
	}
	// Note the gate also sends every relevant delta on an edge-free
	// snapshot to the rebuild path (relevant*N > 0), while pure literal
	// churn on such a snapshot stays on the cheap re-stamp.
	if relevant*incrementalMaxDeltaFraction > prev.NumEdges() {
		return buildAdjacencySnapshot(g)
	}
	return applyAdjacencyDelta(prev, muts)
}

// applyAdjacencyDelta produces the successor snapshot of prev after muts,
// which must be the exact ordered mutation feed (prev.Seq(), w] as
// returned by MutationsSince(prev.Seq()) — every OpAssert a fact that was
// really added, every OpRetract one that was really removed. That
// exactness lets the delta be applied with no graph reads at all: the net
// per-pair count change across the delta, added to the pair's previous
// multiplicity (1 if present in the rows, more if recorded in mult),
// yields the pair's final multiplicity, and only 0↔positive transitions
// change the rows. Rows with no structural change are bulk-copied in
// contiguous runs; changed rows are patched with a sorted merge.
func applyAdjacencyDelta(prev *AdjacencySnapshot, muts []kg.Mutation) *AdjacencySnapshot {
	seq := prev.seq + uint64(len(muts))

	// Net multiplicity change per undirected pair across the delta.
	counts := make(map[edgePair]int32, len(muts))
	for _, m := range muts {
		if !m.T.Object.IsEntity() || m.T.Subject == m.T.Object.Entity {
			continue // literals and self-loops never form rows
		}
		pair := pairOf(m.T.Subject, m.T.Object.Entity)
		if m.Op == kg.OpAssert {
			counts[pair]++
		} else {
			counts[pair]--
		}
	}

	// Classify each touched pair: multiplicity-only change (rows keep
	// their entries) vs structural add/remove on both endpoint rows.
	var (
		adds, dels map[kg.EntityID][]kg.EntityID
		newMult    map[edgePair]int32
	)
	cloneMult := func() {
		if newMult == nil {
			newMult = make(map[edgePair]int32, len(prev.mult)+8)
			for p, c := range prev.mult {
				newMult[p] = c
			}
		}
	}
	appendTo := func(m map[kg.EntityID][]kg.EntityID, pair edgePair) map[kg.EntityID][]kg.EntityID {
		if m == nil {
			m = make(map[kg.EntityID][]kg.EntityID)
		}
		m[pair.A] = append(m[pair.A], pair.B)
		m[pair.B] = append(m[pair.B], pair.A)
		return m
	}
	for pair, net := range counts {
		if net == 0 {
			continue
		}
		var start int32
		if hasNeighbor(prev.Neighbors(pair.A), pair.B) {
			start = 1
			if c, ok := prev.mult[pair]; ok {
				start = c
			}
		}
		final := start + net // the exact log guarantees final >= 0
		switch {
		case final >= 2:
			cloneMult()
			newMult[pair] = final
		case start >= 2: // final dropped to 0 or 1: the entry goes away
			cloneMult()
			delete(newMult, pair)
		}
		if start == 0 && final > 0 {
			adds = appendTo(adds, pair)
		} else if start > 0 && final == 0 {
			dels = appendTo(dels, pair)
		}
	}
	if newMult == nil {
		newMult = prev.mult
	}
	if len(adds) == 0 && len(dels) == 0 {
		// No structural row change (literal-only delta, parallel-edge
		// multiplicity shifts, or changes that cancelled out): share the
		// arrays, re-stamp the watermark.
		return &AdjacencySnapshot{seq: seq, offsets: prev.offsets, nbrs: prev.nbrs, mult: newMult}
	}

	touched := make([]kg.EntityID, 0, len(adds)+len(dels))
	for id := range adds {
		touched = append(touched, id)
	}
	for id := range dels {
		if _, dup := adds[id]; !dup {
			touched = append(touched, id)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })

	prevRows := len(prev.offsets) - 1
	numRows := prevRows
	if last := int(touched[len(touched)-1]); last >= numRows {
		numRows = last + 1
	}
	grow := 0
	for _, ns := range adds {
		grow += len(ns)
	}
	offsets := make([]int32, numRows+1)
	nbrs := make([]kg.EntityID, 0, len(prev.nbrs)+grow)

	ti := 0
	for id := 0; id < numRows; {
		if ti < len(touched) && int(touched[ti]) == id {
			offsets[id] = int32(len(nbrs))
			// adds is disjoint from the previous row and dels ⊆ it; both are
			// small and arrive unsorted.
			a, d := adds[kg.EntityID(id)], dels[kg.EntityID(id)]
			slices.Sort(a)
			slices.Sort(d)
			nbrs = mergeSorted(nbrs, prev.Neighbors(kg.EntityID(id)), a, d, cmpEntity)
			id++
			ti++
			continue
		}
		// Bulk-copy the run of untouched rows up to the next patched row.
		end := numRows
		if ti < len(touched) {
			end = int(touched[ti])
		}
		if id < prevRows {
			cend := end
			if cend > prevRows {
				cend = prevRows
			}
			base := prev.offsets[id]
			shift := int32(len(nbrs)) - base
			for j := id; j < cend; j++ {
				offsets[j] = prev.offsets[j] + shift
			}
			nbrs = append(nbrs, prev.nbrs[base:prev.offsets[cend]]...)
			id = cend
		}
		// Untouched rows past the previous snapshot's row space have no
		// edges: any edge reaching them would be a structural add.
		for ; id < end; id++ {
			offsets[id] = int32(len(nbrs))
		}
	}
	offsets[numRows] = int32(len(nbrs))
	return &AdjacencySnapshot{seq: seq, offsets: offsets, nbrs: nbrs, mult: newMult}
}

// hasNeighbor reports whether sorted row contains v.
func hasNeighbor(row []kg.EntityID, v kg.EntityID) bool {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
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
	// predicates, or symmetric fact pairs) in place, then re-pack. A
	// duplicate run of length c in row u means pair {u, n} is connected by
	// c triples; runs ≥ 2 are recorded in mult (once per pair, from the
	// smaller endpoint) so incremental maintenance can retract parallel
	// edges without consulting the graph.
	packed := nbrs[:0]
	newOffsets := make([]int32, numRows+1)
	mult := make(map[edgePair]int32)
	for id := 0; id < numRows; id++ {
		row := nbrs[offsets[id] : offsets[id]+fill[id]]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		newOffsets[id] = int32(len(packed))
		var prev kg.EntityID
		var run int32
		flushRun := func() {
			if run >= 2 && kg.EntityID(id) < prev {
				mult[edgePair{A: kg.EntityID(id), B: prev}] = run
			}
		}
		for i, n := range row {
			if i > 0 && n == prev {
				run++
				continue
			}
			flushRun()
			packed = append(packed, n)
			prev, run = n, 1
		}
		if len(row) > 0 {
			flushRun()
		}
	}
	newOffsets[numRows] = int32(len(packed))
	return &AdjacencySnapshot{seq: seq, offsets: newOffsets, nbrs: packed, mult: mult}
}
