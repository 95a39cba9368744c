package graphengine

import (
	"fmt"
	"testing"
	"time"

	"saga/internal/kg"
)

// fakeReader is a minimal DerivedReader over a fixed fact list, for
// testing the view seam without the rules engine.
type fakeReader struct {
	preds map[kg.PredicateID]bool
	facts []kg.Triple // insertion order
}

func (f *fakeReader) IsDerived(p kg.PredicateID) bool { return f.preds[p] }

func (f *fakeReader) DerivedFactCount(s kg.EntityID, p kg.PredicateID) int {
	return len(f.DerivedFacts(s, p))
}

func (f *fakeReader) DerivedSubjectCount(p kg.PredicateID, o kg.Value) int {
	return len(f.DerivedSubjects(p, o))
}

func (f *fakeReader) DerivedFrequency(p kg.PredicateID) int { return len(f.DerivedEntries(p)) }

func (f *fakeReader) HasDerivedFact(s kg.EntityID, p kg.PredicateID, o kg.Value) bool {
	key := kg.Triple{Subject: s, Predicate: p, Object: o}.IdentityKey()
	for _, t := range f.facts {
		if t.IdentityKey() == key {
			return true
		}
	}
	return false
}

func (f *fakeReader) DerivedFacts(s kg.EntityID, p kg.PredicateID) []kg.Triple {
	var out []kg.Triple
	for _, t := range f.facts {
		if t.Subject == s && t.Predicate == p {
			out = append(out, t)
		}
	}
	return out
}

func (f *fakeReader) DerivedSubjects(p kg.PredicateID, o kg.Value) []kg.EntityID {
	key := o.MapKey()
	var out []kg.EntityID
	for _, t := range f.facts {
		if t.Predicate == p && t.Object.MapKey() == key {
			out = append(out, t.Subject)
		}
	}
	return out
}

func (f *fakeReader) DerivedEntries(p kg.PredicateID) []kg.Triple {
	var out []kg.Triple
	for _, t := range f.facts {
		if t.Predicate == p {
			out = append(out, t)
		}
	}
	return out
}

func derivedWorld(t *testing.T) (*kg.Graph, *Engine, *fakeReader, []kg.EntityID, kg.PredicateID, kg.PredicateID) {
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
	r := &fakeReader{preds: map[kg.PredicateID]bool{der: true}}
	return g, e, r, ents, base, der
}

// TestDerivedViewUnionOrder: base and derived facts stream as one sorted
// merge in object-key order — whatever order the reader keeps its list
// in — with a base-overlapping derived fact collapsing into the base's.
func TestDerivedViewUnionOrder(t *testing.T) {
	g, _, r, ents, _, der := derivedWorld(t)
	overlap := kg.Triple{Subject: ents[0], Predicate: der, Object: kg.IntValue(1)}
	if err := g.Assert(overlap); err != nil {
		t.Fatal(err)
	}
	if err := g.Assert(kg.Triple{Subject: ents[0], Predicate: der, Object: kg.IntValue(2)}); err != nil {
		t.Fatal(err)
	}
	r.facts = []kg.Triple{
		{Subject: ents[0], Predicate: der, Object: kg.IntValue(9)},
		overlap, // also base-asserted: must not double-stream
		{Subject: ents[0], Predicate: der, Object: kg.IntValue(7)},
	}
	v := NewDerivedView(g, r)

	want := []int64{1, 2, 7, 9}
	for _, chunkSize := range []int{1, 2, 1024} {
		var objs []int64
		v.FactsChunked(ents[0], der, chunkSize, func(chunk []kg.Triple) bool {
			for _, tr := range chunk {
				objs = append(objs, tr.Object.Num)
			}
			return true
		})
		if fmt.Sprint(objs) != fmt.Sprint(want) {
			t.Fatalf("chunk=%d: union order = %v, want %v", chunkSize, objs, want)
		}
	}

	if !v.HasFact(ents[0], der, kg.IntValue(9)) || !v.HasFact(ents[0], der, kg.IntValue(2)) {
		t.Fatal("HasFact missed a union member")
	}
	if v.HasFact(ents[1], der, kg.IntValue(9)) {
		t.Fatal("HasFact invented a fact")
	}
	// Counts are estimates: at least the distinct size, double-counting
	// the overlap is allowed.
	if n := v.FactCount(ents[0], der); n < 4 {
		t.Fatalf("FactCount = %d, want >= 4", n)
	}
}

// TestAttachDerivedQueryTransparency: after AttachDerived, the Engine's
// conjunctive surface answers from the union; after detach, from the
// bare graph again.
func TestAttachDerivedQueryTransparency(t *testing.T) {
	g, e, r, ents, base, der := derivedWorld(t)
	if err := g.Assert(kg.Triple{Subject: ents[1], Predicate: base, Object: kg.StringValue("on")}); err != nil {
		t.Fatal(err)
	}
	r.facts = []kg.Triple{{Subject: ents[1], Predicate: der, Object: kg.EntityValue(ents[2])}}

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
	r.facts = append(r.facts, add)
	e.ApplyDerivedDeltas([]kg.Triple{add}, nil)
	ev := recv(sub)
	if len(ev.Adds) != 1 || len(ev.Retracts) != 0 {
		t.Fatalf("delta event = %+v, want one add", ev)
	}

	r.facts = nil
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
