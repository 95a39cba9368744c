package graphengine

import (
	"math/rand"
	"testing"

	"saga/internal/kg"
)

// This test pins the derived-state contract with log compaction
// (kg.Graph.TruncateLog, the durability layer's checkpoint hook): when
// the mutation-log floor passes a consumer's watermark, the incremental
// feed is incomplete and the consumer must fall back to a full rebuild —
// silently, and with a result identical to a from-scratch build.

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
