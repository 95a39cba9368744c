package rules

import (
	"fmt"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/wal"
)

// TestCheckpointKeepsLaggingConsumer: a WAL checkpoint releases the
// graph's log only up to what every open changefeed has read, so a rules
// engine that has not pulled since a batch still pulls the whole batch
// after the checkpoint and maintains its derived set by delta, without a
// full rederivation.
func TestCheckpointKeepsLaggingConsumer(t *testing.T) {
	g := kg.NewGraph()
	m, _, err := wal.Open("data", g, wal.Options{FS: wal.NewFaultFS(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	geng := graphengine.New(g)
	rt := mustPred(t, g, "reportsTo")
	for i := 0; i < 4; i++ {
		mustAssert(t, g, mustEnt(t, g, fmt.Sprintf("a%d", i)), rt, kg.EntityValue(mustEnt(t, g, fmt.Sprintf("a%d", i+1))))
	}
	rs, err := ParseRules(g, `
		chain(X, Y) :- reportsTo(X, Y).
		chain(X, Z) :- reportsTo(X, Y), chain(Y, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, rs)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runs := e.Stats().FullRuns

	// Extend the chain, and add more pairs than a log chunk a shard holds,
	// so retention has whole chunks it could drop.
	batch := []kg.Triple{{Subject: mustEnt(t, g, "a4"), Predicate: rt, Object: kg.EntityValue(mustEnt(t, g, "tail"))}}
	for i := 0; i < 200; i++ {
		batch = append(batch, kg.Triple{Subject: mustEnt(t, g, fmt.Sprintf("b%d", i)), Predicate: rt, Object: kg.EntityValue(mustEnt(t, g, fmt.Sprintf("c%d", i)))})
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	if got := e.Stats().FullRuns; got != runs {
		t.Fatalf("full runs = %d after a checkpoint, want %d: the checkpoint dropped entries the engine had not read (floor %d, cursor %d)",
			got, runs, g.LogFloor(), e.Stats().Cursor)
	}
	requireFixpoint(t, e, g)
}
