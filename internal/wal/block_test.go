package wal

import (
	"fmt"
	"testing"

	"saga/internal/kg"
)

// A checkpoint of a graph larger than one block must still restore
// exactly (multiple full blocks plus a remainder).
func TestBlockCheckpointMultiBlockRestore(t *testing.T) {
	fs := NewFaultFS(29)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	ent := make([]kg.EntityID, 0, 40)
	for i := 0; i < 40; i++ {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("b%03d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ent = append(ent, id)
	}
	pred, err := g.AddPredicate(kg.Predicate{Name: "links"})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]kg.Triple, 0, factBlockSize*2+37)
	for i := 0; i < cap(batch); i++ {
		batch = append(batch, kg.Triple{
			Subject:   ent[i%len(ent)],
			Predicate: pred,
			Object:    kg.IntValue(int64(i)),
		})
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	g2, m2, _ := mustOpen(t, fs, Options{})
	defer m2.Close()
	if got, want := g2.NumTriples(), g.NumTriples(); got != want {
		t.Fatalf("restored %d triples, want %d", got, want)
	}
}
