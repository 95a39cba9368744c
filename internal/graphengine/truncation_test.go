package graphengine

import (
	"math/rand"
	"testing"

	"saga/internal/kg"
)

// These tests pin the snapshot's contract with the mutation log: log
// compaction (kg.Graph.TruncateLog, the durability layer's checkpoint
// hook) past a published snapshot's watermark must not matter — the next
// snapshot is identical to a from-scratch build — and a snapshot, being
// a rebuild when stale, keeps none of the log itself.

func TestSnapshotAfterTruncation(t *testing.T) {
	g, ids, p := incrFixture(t, 4, 30, 200, 21)
	e := New(g)
	s1 := e.Snapshot()
	if s1 == nil {
		t.Fatal("nil snapshot")
	}

	// Advance the graph, then drop the log entries the incremental path
	// would need.
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 60; i++ {
		s, o := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		tr := kg.Triple{Subject: s, Predicate: p, Object: kg.EntityValue(o)}
		if i%4 == 3 {
			g.Retract(tr)
		} else if err := g.Assert(tr); err != nil {
			t.Fatal(err)
		}
	}
	g.TruncateLog(g.LastSeq())

	s2 := e.Snapshot()
	if s2.Seq() != g.LastSeq() {
		t.Fatalf("snapshot seq %d, watermark %d", s2.Seq(), g.LastSeq())
	}
	want := buildAdjacencySnapshot(g)
	snapshotsEqual(t, 0, s2, want)
}

// TestSnapshotHoldsNoLog checks that an engine which has published
// snapshots holds no mutation log: with no feed open, a burst of writes
// after each Snapshot leaves at most one log chunk a shard.
func TestSnapshotHoldsNoLog(t *testing.T) {
	g, ids, p := incrFixture(t, 2, 200, 2000, 5)
	e := New(g)
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 3; round++ {
		e.Snapshot()
		for i := 0; i < 400; i++ {
			s, o := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if err := g.Assert(kg.Triple{Subject: s, Predicate: p, Object: kg.EntityValue(o)}); err != nil {
				t.Fatal(err)
			}
		}
		if n, most := g.LogEntries(), g.NumShards()*73; n > most {
			t.Fatalf("round %d: the log holds %d entries, want at most %d", round, n, most)
		}
	}
}
