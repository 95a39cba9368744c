package graphengine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"saga/internal/kg"
)

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

// TestIncrementalSnapshotEqualsRebuild is the delta-apply correctness
// property: over randomized Assert/Retract interleavings — including
// parallel edges via a second predicate (multiplicity), literal-only
// deltas, self-loops, and entities added after the first capture — the
// incrementally maintained snapshot must be row-identical to a
// from-scratch rebuild at every step.
func TestIncrementalSnapshotEqualsRebuild(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := 40 + rng.Intn(40)
		g, ids, p := incrFixture(t, 1+rng.Intn(8), pool, 300, seed*7+1)
		p2, err := g.AddPredicate(kg.Predicate{Name: "rel2"})
		if err != nil {
			t.Fatal(err)
		}
		lit, err := g.AddPredicate(kg.Predicate{Name: "lit"})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(g)
		if eng.Snapshot().Seq() != g.LastSeq() {
			t.Fatal("initial snapshot not at watermark")
		}
		for step := 0; step < 30; step++ {
			// Small random delta, mostly below the incremental threshold;
			// occasionally large enough to exercise the rebuild path too.
			n := 1 + rng.Intn(8)
			if step%9 == 8 {
				n = 80
			}
			for i := 0; i < n; i++ {
				pred := p
				if rng.Intn(3) == 0 {
					pred = p2
				}
				s := ids[rng.Intn(len(ids))]
				switch rng.Intn(5) {
				case 0: // retract a random (possibly absent) edge
					g.Retract(kg.Triple{Subject: s, Predicate: pred, Object: kg.EntityValue(ids[rng.Intn(len(ids))])})
				case 1: // literal fact: must not disturb adjacency
					if err := g.Assert(kg.Triple{Subject: s, Predicate: lit, Object: kg.IntValue(int64(rng.Intn(50)))}); err != nil {
						t.Fatal(err)
					}
				case 2: // self-loop: never appears in neighbor rows
					if err := g.Assert(kg.Triple{Subject: s, Predicate: pred, Object: kg.EntityValue(s)}); err != nil {
						t.Fatal(err)
					}
				default:
					o := ids[rng.Intn(len(ids))]
					if err := g.Assert(kg.Triple{Subject: s, Predicate: pred, Object: kg.EntityValue(o)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if step%7 == 6 {
				// Edge reaching an entity registered after the last capture:
				// the new row must appear.
				id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("late%d-%d", seed, step)})
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Assert(kg.Triple{Subject: ids[rng.Intn(len(ids))], Predicate: p, Object: kg.EntityValue(id)}); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			snapshotsEqual(t, step, eng.Snapshot(), buildAdjacencySnapshot(g))
		}
	}
}

// TestApplyAdjacencyDeltaDirect forces the incremental path regardless of
// the size threshold, so small deltas on small graphs are covered. It
// additionally checks the parallel-edge multiplicity bookkeeping against
// the rebuilt ground truth at every step — retracting one of two
// parallel edges must keep the neighbor entry, and the second predicate
// guarantees such pairs occur.
func TestApplyAdjacencyDeltaDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, ids, p := incrFixture(t, 4, 12, 20, 5)
	p2, err := g.AddPredicate(kg.Predicate{Name: "rel2"})
	if err != nil {
		t.Fatal(err)
	}
	prev := buildAdjacencySnapshot(g)
	for step := 0; step < 80; step++ {
		pred := p
		if rng.Intn(2) == 0 {
			pred = p2
		}
		s, o := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			g.Retract(kg.Triple{Subject: s, Predicate: pred, Object: kg.EntityValue(o)})
		} else if err := g.Assert(kg.Triple{Subject: s, Predicate: pred, Object: kg.EntityValue(o)}); err != nil {
			t.Fatal(err)
		}
		muts, complete := g.Feed(prev.Seq()).Pull()
		if !complete {
			t.Fatalf("step %d: feed incomplete", step)
		}
		next := applyAdjacencyDelta(prev, muts)
		want := buildAdjacencySnapshot(g)
		snapshotsEqual(t, step, next, want)
		if len(next.mult) != len(want.mult) {
			t.Fatalf("step %d: mult has %d entries, rebuild has %d (%v vs %v)", step, len(next.mult), len(want.mult), next.mult, want.mult)
		}
		for pair, c := range want.mult {
			if next.mult[pair] != c {
				t.Fatalf("step %d: mult[%v] = %d, rebuild says %d", step, pair, next.mult[pair], c)
			}
		}
		prev = next
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
