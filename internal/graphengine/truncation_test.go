package graphengine

import (
	"math/rand"
	"testing"

	"saga/internal/kg"
)

// These tests pin the derived-state contract with log compaction
// (kg.Graph.TruncateLog, the durability layer's checkpoint hook): when
// the mutation-log floor passes a consumer's watermark, the incremental
// feed is incomplete and the consumer must fall back to a full rebuild —
// silently, and with a result identical to a from-scratch
// materialization.

func TestViewRefreshAfterTruncation(t *testing.T) {
	g, ids, p := incrFixture(t, 4, 30, 200, 11)
	e := New(g)
	v := e.Materialize(ViewDef{})

	// Mutate past the view's watermark, then compact the whole log away.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 80; i++ {
		s, o := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		tr := kg.Triple{Subject: s, Predicate: p, Object: kg.EntityValue(o)}
		if i%3 == 2 {
			g.Retract(tr)
		} else if err := g.Assert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.TruncateLog(g.LastSeq()); n == 0 {
		t.Fatal("TruncateLog dropped nothing")
	}

	v.Refresh()
	fresh := New(g).Materialize(ViewDef{})
	if v.Len() != fresh.Len() {
		t.Fatalf("refreshed view has %d triples, fresh materialization %d", v.Len(), fresh.Len())
	}
	for _, tr := range fresh.Triples() {
		if !v.Contains(tr) {
			t.Fatalf("refreshed view missing %v", tr)
		}
	}

	// Subsequent incremental refreshes work off the rebuilt watermark.
	extra := kg.Triple{Subject: ids[0], Predicate: p, Object: kg.EntityValue(ids[1])}
	g.Retract(extra)
	before := v.Len()
	v.Refresh()
	if want := before - 1; v.Len() != want && v.Len() != before {
		t.Fatalf("post-rebuild incremental refresh broke: len %d", v.Len())
	}
	if v.Contains(extra) {
		t.Fatal("retract after rebuild not applied")
	}
}

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
