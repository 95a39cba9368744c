package graphengine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"saga/internal/kg"
)

// naiveNeighbors recomputes the undirected entity adjacency of id from a
// scan of every stored triple — out-edges are the triples id is the
// subject of, in-edges those it is the entity object of — deduplicated
// through a map, self-loops removed, sorted. It is the reference the
// snapshot must agree with exactly.
func naiveNeighbors(g *kg.Graph, id kg.EntityID) []kg.EntityID {
	set := make(map[kg.EntityID]struct{})
	for _, t := range g.AllTriples() {
		if !t.Object.IsEntity() {
			continue
		}
		if t.Subject == id {
			set[t.Object.Entity] = struct{}{}
		}
		if t.Object.Entity == id {
			set[t.Subject] = struct{}{}
		}
	}
	delete(set, id)
	out := make([]kg.EntityID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []kg.EntityID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotMatchesNaiveNeighbors drives a randomized interleaving of
// Assert and Retract calls and checks, at every step, that the CSR
// snapshot's neighbor sets exactly match the naive lock-held computation
// for every entity — including entities with no edges and freshly
// drained adjacency rows.
func TestSnapshotMatchesNaiveNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := kg.NewGraph()
	e := New(g)

	const numEnts = 24
	ids := make([]kg.EntityID, numEnts)
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("Q%d", i), Name: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	preds := make([]kg.PredicateID, 3)
	for i := range preds {
		p, err := g.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}

	// live tracks asserted triples so retracts hit real facts ~half the time.
	var live []kg.Triple
	randomTriple := func() kg.Triple {
		return kg.Triple{
			Subject:   ids[rng.Intn(numEnts)],
			Predicate: preds[rng.Intn(len(preds))],
			Object:    kg.EntityValue(ids[rng.Intn(numEnts)]),
		}
	}

	for step := 0; step < 600; step++ {
		switch {
		case len(live) > 0 && rng.Intn(3) == 0:
			i := rng.Intn(len(live))
			tr := live[i]
			g.Retract(tr)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case rng.Intn(6) == 0:
			// Retract something that may or may not exist.
			g.Retract(randomTriple())
		default:
			tr := randomTriple()
			if isNew, err := g.AssertNew(tr); err != nil {
				t.Fatal(err)
			} else if isNew {
				live = append(live, tr)
			}
		}

		snap := e.Snapshot()
		if snap.Seq() != g.LastSeq() {
			t.Fatalf("step %d: snapshot seq %d != graph seq %d", step, snap.Seq(), g.LastSeq())
		}
		for _, id := range ids {
			want := naiveNeighbors(g, id)
			got := snap.Neighbors(id)
			if !equalIDs(want, got) {
				t.Fatalf("step %d: Neighbors(%v) = %v, want %v", step, id, got, want)
			}
			if snap.Degree(id) != len(want) {
				t.Fatalf("step %d: Degree(%v) = %d, want %d", step, id, snap.Degree(id), len(want))
			}
		}
		// The public Engine.Neighbors must agree with the naive result too.
		probe := ids[rng.Intn(numEnts)]
		if got := e.Neighbors(probe); !equalIDs(naiveNeighbors(g, probe), got) {
			t.Fatalf("step %d: Engine.Neighbors(%v) = %v", step, probe, got)
		}
	}
}

// TestSnapshotStalenessWatermark checks the invalidation contract: a
// snapshot is reused verbatim while the watermark is unchanged and
// replaced after any mutation, and no-op mutations (duplicate assert,
// missing retract) do not invalidate it.
func TestSnapshotStalenessWatermark(t *testing.T) {
	g := kg.NewGraph()
	e := New(g)
	a, _ := g.AddEntity(kg.Entity{Key: "a"})
	b, _ := g.AddEntity(kg.Entity{Key: "b"})
	p, _ := g.AddPredicate(kg.Predicate{Name: "p"})
	tr := kg.Triple{Subject: a, Predicate: p, Object: kg.EntityValue(b)}
	if err := g.Assert(tr); err != nil {
		t.Fatal(err)
	}

	s1 := e.Snapshot()
	if s2 := e.Snapshot(); s1 != s2 {
		t.Fatal("snapshot rebuilt without mutation")
	}
	if err := g.Assert(tr); err != nil { // duplicate: no watermark bump
		t.Fatal(err)
	}
	if s2 := e.Snapshot(); s1 != s2 {
		t.Fatal("duplicate assert invalidated snapshot")
	}
	if g.Retract(kg.Triple{Subject: b, Predicate: p, Object: kg.EntityValue(a)}) {
		t.Fatal("retract of absent fact reported true")
	}
	if s2 := e.Snapshot(); s1 != s2 {
		t.Fatal("no-op retract invalidated snapshot")
	}

	if !g.Retract(tr) {
		t.Fatal("retract failed")
	}
	s3 := e.Snapshot()
	if s3 == s1 {
		t.Fatal("snapshot not rebuilt after mutation")
	}
	if len(s3.Neighbors(a)) != 0 || len(s3.Neighbors(b)) != 0 {
		t.Fatalf("neighbors survived retract: %v %v", s3.Neighbors(a), s3.Neighbors(b))
	}
	// The old snapshot must be unchanged (immutability): readers holding
	// it still see the pre-retract adjacency.
	if len(s1.Neighbors(a)) != 1 || s1.Neighbors(a)[0] != b {
		t.Fatalf("acquired snapshot mutated: %v", s1.Neighbors(a))
	}
}

// TestSnapshotConcurrentReadersAndWriters exercises concurrent snapshot
// reads during writes; run with -race. Readers must always observe an
// internally consistent snapshot (sorted, deduplicated, self-loop-free
// rows) regardless of interleaving with writers.
func TestSnapshotConcurrentReadersAndWriters(t *testing.T) {
	g := kg.NewGraph()
	e := New(g)
	const numEnts = 32
	ids := make([]kg.EntityID, numEnts)
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("Q%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	p, err := g.AddPredicate(kg.Predicate{Name: "p"})
	if err != nil {
		t.Fatal(err)
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr := kg.Triple{
					Subject:   ids[rng.Intn(numEnts)],
					Predicate: p,
					Object:    kg.EntityValue(ids[rng.Intn(numEnts)]),
				}
				if rng.Intn(2) == 0 {
					_ = g.Assert(tr)
				} else {
					g.Retract(tr)
				}
			}
		}(int64(w + 1))
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				id := ids[rng.Intn(numEnts)]
				snap := e.Snapshot()
				row := snap.Neighbors(id)
				for j := 1; j < len(row); j++ {
					if row[j] <= row[j-1] {
						t.Errorf("row not sorted/deduped: %v", row)
						return
					}
				}
				for _, n := range row {
					if n == id {
						t.Errorf("self-loop in row of %v: %v", id, row)
						return
					}
				}
				_ = e.Neighbors(id)
				if i%50 == 0 {
					_ = e.Snapshot().BFS(id, 2)
					_ = e.PersonalizedPageRank(id, 0.15, 3)
				}
			}
		}(int64(100 + r))
	}
	// Writers churn for the readers' whole bounded run, then stop.
	readers.Wait()
	close(stop)
	writers.Wait()
}

// incrFixture builds a graph with pool entities and a base layer of
// random entity edges so snapshots start non-trivial.
func incrFixture(t testing.TB, shards, pool, baseEdges int, seed int64) (*kg.Graph, []kg.EntityID, kg.PredicateID) {
	t.Helper()
	g := kg.NewGraphWithShards(shards)
	p, err := g.AddPredicate(kg.Predicate{Name: "rel"})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]kg.EntityID, pool)
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < baseEdges; i++ {
		s, o := ids[rng.Intn(pool)], ids[rng.Intn(pool)]
		if err := g.Assert(kg.Triple{Subject: s, Predicate: p, Object: kg.EntityValue(o)}); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids, p
}

// snapshotsEqual compares two snapshots row by row over numRows rows.
func snapshotsEqual(t *testing.T, step int, got, want *AdjacencySnapshot) {
	t.Helper()
	if got.Seq() != want.Seq() {
		t.Fatalf("step %d: snapshot seq %d, rebuild seq %d", step, got.Seq(), want.Seq())
	}
	rows := len(want.offsets) - 1
	if gr := len(got.offsets) - 1; gr > rows {
		rows = gr
	}
	for id := 0; id < rows; id++ {
		g, w := got.Neighbors(kg.EntityID(id)), want.Neighbors(kg.EntityID(id))
		if len(g) != len(w) {
			t.Fatalf("step %d: row %d has %d neighbors, rebuild has %d (%v vs %v)", step, id, len(g), len(w), g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("step %d: row %d differs at %d: %v vs %v", step, id, i, g, w)
			}
		}
	}
}

// TestSnapshotConcurrentWithShardedWrites hammers Snapshot (and the
// traversals that consume it) while sharded writers mutate the graph:
// every acquired snapshot must be internally consistent and at a
// watermark no older than the last mutation its acquirer observed.
func TestSnapshotConcurrentWithShardedWrites(t *testing.T) {
	g, ids, p := incrFixture(t, 8, 64, 200, 3)
	eng := New(g)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				s, o := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				tr := kg.Triple{Subject: s, Predicate: p, Object: kg.EntityValue(o)}
				if rng.Intn(3) == 0 {
					g.Retract(tr)
				} else {
					_ = g.Assert(tr)
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := g.LastSeq()
				snap := eng.Snapshot()
				if snap.Seq() < before {
					t.Errorf("snapshot seq %d older than previously observed watermark %d", snap.Seq(), before)
					return
				}
				// Structural consistency: offsets monotone, neighbors in bounds.
				rows := len(snap.offsets) - 1
				for id := 0; id <= rows-1; id++ {
					if snap.offsets[id] > snap.offsets[id+1] {
						t.Errorf("offsets not monotone at %d", id)
						return
					}
				}
				for _, n := range snap.nbrs {
					if int(n) <= 0 {
						t.Errorf("out-of-range neighbor %v", n)
						return
					}
				}
				src := ids[rng.Intn(len(ids))]
				_ = eng.Snapshot().BFS(src, 2)
				_ = eng.Neighbors(src)
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	// After quiescence the snapshot must converge to the final watermark.
	if s := eng.Snapshot(); s.Seq() != g.LastSeq() {
		t.Fatalf("final snapshot at %d, watermark %d", s.Seq(), g.LastSeq())
	}
}
