package graphengine

import (
	"fmt"
	"testing"
	"time"

	"saga/internal/kg"
)

// derivedWorld is a four-entity graph with a base predicate and one that
// carries derived facts, and the (empty) graph those live in.
func derivedWorld(t *testing.T) (*kg.Graph, *Engine, *kg.Graph, []kg.EntityID, kg.PredicateID, kg.PredicateID) {
	t.Helper()
	g := kg.NewGraph()
	e := New(g)
	ents := make([]kg.EntityID, 4)
	for i := range ents {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("d%d", i), Name: fmt.Sprintf("d%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = id
	}
	base, err := g.AddPredicate(kg.Predicate{Name: "basePred"})
	if err != nil {
		t.Fatal(err)
	}
	der, err := g.AddPredicate(kg.Predicate{Name: "derPred"})
	if err != nil {
		t.Fatal(err)
	}
	return g, e, kg.NewGraphOver(g), ents, base, der
}

// TestAttachDerivedQueryTransparency: after AttachDerived, the Engine's
// conjunctive surface answers from the union; after detach, from the
// bare graph again.
func TestAttachDerivedQueryTransparency(t *testing.T) {
	g, e, r, ents, base, der := derivedWorld(t)
	if err := g.Assert(kg.Triple{Subject: ents[1], Predicate: base, Object: kg.StringValue("on")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Assert(kg.Triple{Subject: ents[1], Predicate: der, Object: kg.EntityValue(ents[2])}); err != nil {
		t.Fatal(err)
	}

	clauses := []Clause{
		{Subject: V("X"), Predicate: der, Object: V("Y")},
		{Subject: V("X"), Predicate: base, Object: Term{Const: kg.StringValue("on")}},
	}
	count := func() int {
		n := 0
		for _, err := range e.StreamConjunctive(clauses, QueryOptions{}) {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		return n
	}
	if got := count(); got != 0 {
		t.Fatalf("pre-attach rows = %d, want 0", got)
	}
	e.AttachDerived(r)
	if got := count(); got != 1 {
		t.Fatalf("attached rows = %d, want 1", got)
	}
	e.AttachDerived(nil)
	if got := count(); got != 0 {
		t.Fatalf("detached rows = %d, want 0", got)
	}
}

// TestApplyDerivedDeltasReachesSubscriptions: derived visibility changes
// flow into standing queries through the predicate-keyed dispatch, and
// subscriptions whose predicates are untouched never hear about them.
func TestApplyDerivedDeltasReachesSubscriptions(t *testing.T) {
	_, e, r, ents, base, der := derivedWorld(t)
	e.AttachDerived(r)
	sub, err := e.Subscribe([]Clause{
		{Subject: V("X"), Predicate: der, Object: V("Y")},
	}, SubscribeOptions{Coalesce: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	other, err := e.Subscribe([]Clause{
		{Subject: V("X"), Predicate: base, Object: V("Y")},
	}, SubscribeOptions{Coalesce: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	recv := func(s *Subscription) SubscriptionEvent {
		t.Helper()
		select {
		case ev, ok := <-s.C:
			if !ok {
				t.Fatalf("subscription closed: %v", s.Err())
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for event")
		}
		panic("unreachable")
	}
	if ev := recv(sub); !ev.Reset || len(ev.Adds) != 0 {
		t.Fatalf("snapshot = %+v, want empty Reset", ev)
	}
	if ev := recv(other); !ev.Reset {
		t.Fatalf("other snapshot = %+v", ev)
	}

	add := kg.Triple{Subject: ents[0], Predicate: der, Object: kg.IntValue(5)}
	if err := r.Assert(add); err != nil {
		t.Fatal(err)
	}
	e.ApplyDerivedDeltas([]kg.Triple{add}, nil)
	ev := recv(sub)
	if len(ev.Adds) != 1 || len(ev.Retracts) != 0 {
		t.Fatalf("delta event = %+v, want one add", ev)
	}

	r.Retract(add)
	e.ApplyDerivedDeltas(nil, []kg.Triple{add})
	ev = recv(sub)
	if len(ev.Retracts) != 1 {
		t.Fatalf("delta event = %+v, want one retract", ev)
	}

	// The base-predicate subscription heard nothing throughout.
	select {
	case ev := <-other.C:
		t.Fatalf("untouched subscription got %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestChunkedFactsExpansion: a bound-subject clause over a fact list
// spanning several chunks yields every fact once, in object-key order.
func TestChunkedFactsExpansion(t *testing.T) {
	g := kg.NewGraph()
	e := New(g)
	subj, err := g.AddEntity(kg.Entity{Key: "hub", Name: "hub"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.AddPredicate(kg.Predicate{Name: "links"})
	if err != nil {
		t.Fatal(err)
	}
	const total = 3000 // spans several postingChunkSize chunks
	for i := total - 1; i >= 0; i-- {
		if err := g.Assert(kg.Triple{Subject: subj, Predicate: p, Object: kg.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	clauses := []Clause{{Subject: Term{Const: kg.EntityValue(subj)}, Predicate: p, Object: V("Y")}}
	next := int64(0)
	for b, err := range e.StreamConjunctive(clauses, QueryOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		if b["Y"].Num != next {
			t.Fatalf("row %d = %d: chunked expansion out of object-key order", next, b["Y"].Num)
		}
		next++
	}
	if next != total {
		t.Fatalf("chunked expansion yielded %d rows, want %d", next, total)
	}
}
