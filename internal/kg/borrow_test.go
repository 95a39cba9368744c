package kg

import (
	"fmt"
	"testing"
)

// TestNewGraphOver: a borrower shares its lender's dictionaries and
// ontology, late registrations included, and nothing else — facts, the
// log and the watermark are each graph's own.
func TestNewGraphOver(t *testing.T) {
	lender := NewGraph()
	a := mustEntity(t, lender, "a", "A")
	p := mustPredicate(t, lender, "p")
	b := NewGraphOver(lender)

	// An entity and a predicate the lender registers after the borrower
	// was made are valid in the borrower.
	late := mustEntity(t, lender, "late", "Late")
	q := mustPredicate(t, lender, "q")
	bf := Triple{Subject: late, Predicate: q, Object: EntityValue(a)}
	if added, err := b.AssertNew(bf); err != nil || !added {
		t.Fatalf("borrower AssertNew(late entity) = %v, %v", added, err)
	}

	// An ID neither has registered is refused.
	for _, bad := range []Triple{
		{Subject: late + 1, Predicate: p, Object: EntityValue(a)},
		{Subject: a, Predicate: q + 1, Object: EntityValue(a)},
		{Subject: a, Predicate: p, Object: EntityValue(late + 1)},
	} {
		if err := b.Assert(bad); err == nil {
			t.Fatalf("borrower accepted %+v, which names an unregistered ID", bad)
		}
	}

	// Facts in either graph are invisible to the other.
	lf := Triple{Subject: a, Predicate: p, Object: StringValue("lender's")}
	if err := lender.Assert(lf); err != nil {
		t.Fatal(err)
	}
	if b.HasFact(lf.Subject, lf.Predicate, lf.Object) || b.FactCount(a, p) != 0 || b.PredicateFrequency(p) != 0 {
		t.Fatal("the lender's fact shows in the borrower")
	}
	if lender.HasFact(bf.Subject, bf.Predicate, bf.Object) || lender.SubjectsWithCount(q, bf.Object) != 0 || lender.PredicateFrequency(q) != 0 {
		t.Fatal("the borrower's fact shows in the lender")
	}
	if b.NumTriples() != 1 || lender.NumTriples() != 1 {
		t.Fatalf("NumTriples: borrower %d, lender %d; want 1 and 1", b.NumTriples(), lender.NumTriples())
	}
	if b.LastSeq() != 1 || lender.LastSeq() != 1 {
		t.Fatalf("watermarks: borrower %d, lender %d; want 1 and 1", b.LastSeq(), lender.LastSeq())
	}

	// Dictionary reads on the borrower answer from the lender, writes
	// through it included.
	if e, ok := b.EntityByKey("late"); !ok || e.ID != late {
		t.Fatalf("borrower EntityByKey(late) = %v, %v", e, ok)
	}
	if pr, ok := b.PredicateByName("q"); !ok || pr.ID != q {
		t.Fatalf("borrower PredicateByName(q) = %v, %v", pr, ok)
	}
	if b.NumEntities() != lender.NumEntities() || b.NumPredicates() != lender.NumPredicates() {
		t.Fatal("borrower and lender count their dictionaries differently")
	}
	typ, err := lender.Ontology().AddType("person", NoType)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := b.Ontology().TypeID("person"); !ok || id != typ {
		t.Fatalf("borrower's ontology lacks the lender's type: %v, %v", id, ok)
	}
	late2, err := b.AddEntity(Entity{Key: "late2"})
	if err != nil {
		t.Fatal(err)
	}
	if e := lender.Entity(late2); e == nil || e.Key != "late2" {
		t.Fatalf("an entity the borrower registers is missing from the lender: %v", e)
	}
}

// TestNewGraphOverBesideLenderWrites: a borrower asserts facts about
// entities the lender registers concurrently, each as soon as its ID is
// handed over, while the lender writes facts of its own (run with
// -race).
func TestNewGraphOverBesideLenderWrites(t *testing.T) {
	lender := NewGraph()
	p := mustPredicate(t, lender, "p")
	b := NewGraphOver(lender)
	ids, stop := make(chan EntityID), make(chan struct{})
	defer close(stop)
	go func() {
		defer close(ids)
		for i := 0; i < 200; i++ {
			id, err := lender.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
			if err != nil {
				t.Error(err)
				return
			}
			if err := lender.Assert(Triple{Subject: id, Predicate: p, Object: IntValue(int64(i))}); err != nil {
				t.Error(err)
				return
			}
			select {
			case ids <- id:
			case <-stop:
				return
			}
		}
	}()
	n := 0
	for id := range ids {
		if err := b.Assert(Triple{Subject: id, Predicate: p, Object: EntityValue(id)}); err != nil {
			t.Fatal(err)
		}
		if e := b.Entity(id); e == nil || e.ID != id {
			t.Fatalf("borrower Entity(%v) = %v", id, e)
		}
		n++
	}
	if b.NumTriples() != n || lender.NumTriples() != n || n != 200 {
		t.Fatalf("borrower holds %d facts and lender %d after %d handovers, want 200 each", b.NumTriples(), lender.NumTriples(), n)
	}
}
