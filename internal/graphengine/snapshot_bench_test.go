package graphengine

import (
	"fmt"
	"math/rand"
	"testing"

	"saga/internal/kg"
)

// benchGraph builds a fixed random entity graph for snapshot benchmarks.
func benchGraph(b *testing.B, pool, edges int) (*kg.Graph, []kg.EntityID, kg.PredicateID) {
	b.Helper()
	g := kg.NewGraphWithShards(8)
	p, err := g.AddPredicate(kg.Predicate{Name: "rel"})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]kg.EntityID, pool)
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]kg.Triple, 0, edges)
	for i := 0; i < edges; i++ {
		batch = append(batch, kg.Triple{
			Subject:   ids[rng.Intn(pool)],
			Predicate: p,
			Object:    kg.EntityValue(ids[rng.Intn(pool)]),
		})
	}
	if _, err := g.AssertBatch(batch); err != nil {
		b.Fatal(err)
	}
	return g, ids, p
}

// BenchmarkSnapshotDelta measures bringing a CSR adjacency snapshot up to
// date after a mutation delta of the named fraction of the edge count:
// the incremental path (affected rows recomputed, untouched row ranges
// bulk-copied) against the from-scratch rebuild that every mutation cost
// before incremental maintenance. Both paths run against the same fixed
// post-delta graph state, so the ratio is a pure algorithm comparison.
func BenchmarkSnapshotDelta(b *testing.B) {
	const pool, edges = 4000, 40000
	for _, deltaPct := range []int{1, 5} {
		g, ids, p := benchGraph(b, pool, edges)
		prev := buildAdjacencySnapshot(g)
		// hold keeps the delta in the log, as the engine's snapshot feed
		// does between two advances (BenchmarkSnapshotAfterIngest runs
		// that path end to end); each iteration pulls the delta through a
		// feed of its own at prev's watermark.
		hold := g.Feed(prev.Seq())
		rng := rand.New(rand.NewSource(11))
		n := prev.NumEdges() * deltaPct / 100
		for j := 0; j < n; j++ {
			tr := kg.Triple{Subject: ids[rng.Intn(pool)], Predicate: p, Object: kg.EntityValue(ids[rng.Intn(pool)])}
			if rng.Intn(4) == 0 {
				g.Retract(tr)
			} else {
				_ = g.Assert(tr)
			}
		}
		b.Run(fmt.Sprintf("delta=%d%%/incremental", deltaPct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := g.Feed(prev.Seq())
				muts, _ := f.Pull()
				f.Close()
				next := applyAdjacencyDelta(prev, muts)
				if next.Seq() != g.LastSeq() {
					b.Fatal("stale delta apply")
				}
			}
		})
		b.Run(fmt.Sprintf("delta=%d%%/rebuild", deltaPct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s := buildAdjacencySnapshot(g); s.Seq() != g.LastSeq() {
					b.Fatal("stale rebuild")
				}
			}
		})
		hold.Close()
	}
}

// BenchmarkSnapshotAfterIngest measures what a /derive request after an
// ingest burst pays for its adjacency snapshot: the previous snapshot was
// published before the burst, nothing else reads the log, and the burst
// is the named fraction of the edge count, written as 64-triple batches
// that alternately assert fresh edges and retract the previous burst's.
// Only the Snapshot call is timed.
func BenchmarkSnapshotAfterIngest(b *testing.B) {
	const pool, edges = 4000, 40000
	for _, deltaPct := range []int{1, 5} {
		b.Run(fmt.Sprintf("delta=%d%%", deltaPct), func(b *testing.B) {
			g, ids, p := benchGraph(b, pool, edges)
			e := New(g)
			n := e.Snapshot().NumEdges() * deltaPct / 100
			rng := rand.New(rand.NewSource(11))
			var burst []kg.Triple
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%2 == 1 {
					for _, tr := range burst {
						g.Retract(tr)
					}
				} else {
					burst = burst[:0]
					for j := 0; j < n; j++ {
						burst = append(burst, kg.Triple{Subject: ids[rng.Intn(pool)], Predicate: p, Object: kg.EntityValue(ids[rng.Intn(pool)])})
					}
					for j := 0; j < n; j += 64 {
						if _, err := g.AssertBatch(burst[j:min(j+64, n)]); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StartTimer()
				if s := e.Snapshot(); s.Seq() != g.LastSeq() {
					b.Fatal("stale snapshot")
				}
			}
		})
	}
}
