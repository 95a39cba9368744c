package saga

import (
	"testing"
)

// TestDurablePlatformRoundTrip seeds a durable data directory from a
// generated world, mutates, checkpoints, closes, and reopens — the public
// API's end-to-end durability contract.
func TestDurablePlatformRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := GenerateWorld(WorldConfig{NumPeople: 40, NumClusters: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	p, info, err := OpenDurablePlatform(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.RecoveredLSN != 0 {
		t.Fatalf("fresh directory recovered LSN %d", info.RecoveredLSN)
	}
	if p.Durability() == nil {
		t.Fatal("durable platform has no manager")
	}
	if err := ImportGraph(p.Graph(), w.Graph); err != nil {
		t.Fatal(err)
	}
	// A few post-import mutations so recovery exercises log replay on top
	// of the checkpoint.
	if _, err := p.CheckpointDurable(); err != nil {
		t.Fatal(err)
	}
	id, err := p.Graph().AddEntity(Entity{Key: "late", Name: "late arrival"})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.Graph().AddPredicate(Predicate{Name: "lateFact"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Graph().Assert(Triple{Subject: id, Predicate: pred, Object: IntValue(42)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SyncDurable(); err != nil {
		t.Fatal(err)
	}
	wantTriples := p.Graph().NumTriples()
	wantSeq := p.Graph().LastSeq()
	if err := p.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	if p.Durability() != nil {
		t.Fatal("manager survives CloseDurable")
	}

	p2, info2, err := OpenDurablePlatform(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseDurable()
	if info2.RecoveredLSN != wantSeq || p2.Graph().LastSeq() != wantSeq {
		t.Fatalf("recovered LSN %d (graph %d), want %d", info2.RecoveredLSN, p2.Graph().LastSeq(), wantSeq)
	}
	if got := p2.Graph().NumTriples(); got != wantTriples {
		t.Fatalf("recovered %d triples, want %d", got, wantTriples)
	}
	if e, ok := p2.Graph().EntityByKey("late"); !ok || e.Name != "late arrival" {
		t.Fatalf("post-checkpoint entity lost: %+v ok=%v", e, ok)
	}
	// The recovered platform is queryable.
	got, err := p2.QueryConjunctive([]QueryClause{{Subject: QEntity(id), Predicate: pred, Object: QVar("v")}})
	if err != nil || len(got) != 1 || !got[0]["v"].Equal(IntValue(42)) {
		t.Fatalf("recovered fact query = %v, %v", got, err)
	}
}

// TestMemoryPlatformDurabilityErrors pins the memory-only behavior of
// the durability methods.
func TestMemoryPlatformDurabilityErrors(t *testing.T) {
	p := New(NewGraph())
	if p.Durability() != nil {
		t.Fatal("memory platform has a manager")
	}
	if _, err := p.SyncDurable(); err == nil {
		t.Fatal("SyncDurable on memory platform succeeded")
	}
	if _, err := p.CheckpointDurable(); err == nil {
		t.Fatal("CheckpointDurable on memory platform succeeded")
	}
	if err := p.CloseDurable(); err != nil {
		t.Fatalf("CloseDurable on memory platform: %v", err)
	}
}
