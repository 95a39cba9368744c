package kg

import (
	"strings"
	"testing"
)

func TestAccessorsAndStringers(t *testing.T) {
	g := NewGraph()
	if g.Ontology() == nil {
		t.Fatal("nil ontology")
	}
	ty, err := g.Ontology().AddType("Person", NoType)
	if err != nil {
		t.Fatal(err)
	}
	a := mustEntity(t, g, "Q1", "A", ty)
	b := mustEntity(t, g, "Q2", "B")
	p := mustPredicate(t, g, "knows")

	// Entity types.
	if ts := g.Entity(a).Types; len(ts) != 1 || ts[0] != ty {
		t.Fatalf("a's types = %v, want [Person]", ts)
	}
	if ts := g.Entity(b).Types; len(ts) != 0 {
		t.Fatalf("b's types = %v, want none", ts)
	}

	// Ontology accessors.
	if id, ok := g.Ontology().TypeID("Person"); !ok || id != ty {
		t.Fatalf("TypeID = %v,%v", id, ok)
	}
	if name := g.Ontology().Name(ty); name != "Person" {
		t.Fatalf("Name = %q", name)
	}
	if g.Ontology().Name(TypeID(99)) != "" {
		t.Fatal("unknown type has a name")
	}
	if g.Ontology().Parent(ty) != NoType {
		t.Fatal("root type has a parent")
	}
	if g.Ontology().Parent(TypeID(99)) != NoType {
		t.Fatal("unknown type has a parent")
	}

	// SetPopularity.
	g.SetPopularity(a, 0.42)
	if got := g.Entity(a).Popularity; got != 0.42 {
		t.Fatalf("popularity = %v", got)
	}
	g.SetPopularity(EntityID(999), 1) // out of range must not panic

	// Predicate accessors.
	if g.Predicate(p) == nil || g.Predicate(p).Name != "knows" {
		t.Fatal("Predicate lookup failed")
	}
	if g.Predicate(PredicateID(99)) != nil {
		t.Fatal("unknown predicate resolved")
	}
	if pr, ok := g.PredicateByName("knows"); !ok || pr.ID != p {
		t.Fatalf("PredicateByName = %v,%v", pr, ok)
	}
	if _, ok := g.PredicateByName("nope"); ok {
		t.Fatal("unknown predicate name resolved")
	}

	// AssertBatch.
	batch := []Triple{
		{Subject: a, Predicate: p, Object: EntityValue(b)},
		{Subject: b, Predicate: p, Object: EntityValue(a)},
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 2 {
		t.Fatalf("NumTriples = %d", g.NumTriples())
	}
	if _, err := g.AssertBatch([]Triple{{Subject: 999, Predicate: p, Object: IntValue(1)}}); err == nil {
		t.Fatal("AssertBatch with bad triple accepted")
	}

	// Entities / Predicates iterators with early stop.
	var ents int
	g.Entities(func(*Entity) bool {
		ents++
		return ents < 1
	})
	if ents != 1 {
		t.Fatalf("early-stop Entities visited %d", ents)
	}
	var preds int
	g.Predicates(func(*Predicate) bool {
		preds++
		return true
	})
	if preds != 1 {
		t.Fatalf("Predicates visited %d", preds)
	}

	// Stringers.
	tr := batch[0]
	if s := tr.String(); !strings.Contains(s, "E1") || !strings.Contains(s, "P1") {
		t.Fatalf("Triple.String = %q", s)
	}
	if OpAssert.String() != "assert" || OpRetract.String() != "retract" {
		t.Fatal("MutationOp stringers wrong")
	}
	if MutationOp(9).String() == "" {
		t.Fatal("unknown op stringer empty")
	}
	kinds := []ValueKind{KindEntity, KindString, KindInt, KindFloat, KindTime, KindBool, ValueKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("ValueKind(%d).String empty", k)
		}
	}
	if ty.String() == "" || a.String() == "" || p.String() == "" {
		t.Fatal("ID stringers empty")
	}
}

func TestRemoveHelpersMissingElement(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	b := mustEntity(t, g, "Q2", "B")
	p := mustPredicate(t, g, "p")
	if err := g.Assert(Triple{Subject: a, Predicate: p, Object: EntityValue(b)}); err != nil {
		t.Fatal(err)
	}
	// Retract a triple with same subject+predicate but different object:
	// exercises the not-found path of the fact-list search.
	if g.Retract(Triple{Subject: a, Predicate: p, Object: EntityValue(a)}) {
		t.Fatal("retracted a fact that does not exist")
	}
	if g.NumTriples() != 1 {
		t.Fatal("existing fact damaged")
	}
}
