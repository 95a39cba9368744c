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

// TestSnapshotFeedHoldsAnApplicableDelta checks the snapshot's own feed
// with no other consumer open: between two advances the log holds a
// delta small enough to apply, and releases one past the incremental
// gate, which the next advance rebuilds from scratch. Both advances
// equal a from-scratch build.
func TestSnapshotFeedHoldsAnApplicableDelta(t *testing.T) {
	g, ids, p := incrFixture(t, 2, 200, 2000, 5)
	e := New(g)
	rng := rand.New(rand.NewSource(6))
	assertEdges := func(n int) {
		for i := 0; i < n; i++ {
			s, o := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if err := g.Assert(kg.Triple{Subject: s, Predicate: p, Object: kg.EntityValue(o)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	s0 := e.Snapshot()
	assertEdges(s0.NumEdges() / incrementalMaxDeltaFraction / 2)
	if floor := g.LogFloor(); floor > s0.Seq() {
		t.Fatalf("a delta within the gate was dropped: floor %d past the snapshot at %d", floor, s0.Seq())
	}
	s1 := e.Snapshot()
	snapshotsEqual(t, 1, s1, buildAdjacencySnapshot(g))

	assertEdges(2 * s1.NumEdges() / incrementalMaxDeltaFraction)
	if n, most := g.LogEntries(), g.NumShards()*73; n > most {
		t.Fatalf("the log holds %d entries for a delta past the gate, want at most %d", n, most)
	}
	if floor := g.LogFloor(); floor <= s1.Seq() {
		t.Fatalf("a delta past the gate was held: floor %d, snapshot at %d", floor, s1.Seq())
	}
	snapshotsEqual(t, 2, e.Snapshot(), buildAdjacencySnapshot(g))
}
