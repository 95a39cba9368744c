package kg

import (
	"fmt"
	"slices"
	"testing"
)

// iterFixture builds a small graph with two subjects, two predicates, and
// a shared object entity.
func iterFixture(t *testing.T) (g *Graph, subs []EntityID, p, q PredicateID, obj EntityID) {
	t.Helper()
	g = NewGraphWithShards(4)
	add := func(key string) EntityID {
		id, err := g.AddEntity(Entity{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	obj = add("obj")
	p, _ = g.AddPredicate(Predicate{Name: "p"})
	q, _ = g.AddPredicate(Predicate{Name: "q"})
	for i := 0; i < 6; i++ {
		subs = append(subs, add(fmt.Sprintf("s%d", i)))
	}
	for i, s := range subs {
		if err := g.Assert(Triple{Subject: s, Predicate: p, Object: EntityValue(obj)}); err != nil {
			t.Fatal(err)
		}
		if err := g.Assert(Triple{Subject: s, Predicate: q, Object: IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return g, subs, p, q, obj
}

// Every Seq accessor must stream exactly what its slice/visitor
// counterpart produces, and breaking out of the range must stop the
// enumeration early.
func TestSeqAccessorsMatchSliceAccessors(t *testing.T) {
	g, subs, p, q, obj := iterFixture(t)

	var facts []Triple
	for tr := range g.FactsSeq(subs[0], p) {
		facts = append(facts, tr)
	}
	if want := g.Facts(subs[0], p); len(facts) != len(want) {
		t.Fatalf("FactsSeq = %d triples, Facts = %d", len(facts), len(want))
	}

	var outgoing []Triple
	for tr := range g.OutgoingSeq(subs[0]) {
		outgoing = append(outgoing, tr)
	}
	if want := g.Outgoing(subs[0]); len(outgoing) != len(want) {
		t.Fatalf("OutgoingSeq = %d triples, Outgoing = %d", len(outgoing), len(want))
	}

	var incoming []Triple
	for tr := range g.IncomingSeq(obj) {
		incoming = append(incoming, tr)
	}
	if want := g.Incoming(obj); len(incoming) != len(want) {
		t.Fatalf("IncomingSeq = %d triples, Incoming = %d", len(incoming), len(want))
	}

	var posted []EntityID
	for s := range g.SubjectsWithSeq(p, EntityValue(obj)) {
		posted = append(posted, s)
	}
	want := g.SubjectsWith(p, EntityValue(obj))
	if len(posted) != len(want) {
		t.Fatalf("SubjectsWithSeq = %d subjects, SubjectsWith = %d", len(posted), len(want))
	}
	for i := range posted {
		if posted[i] != want[i] {
			t.Fatalf("SubjectsWithSeq order diverges from SubjectsWith at %d: %v vs %v", i, posted, want)
		}
	}
	if !slices.IsSorted(posted) {
		t.Fatalf("SubjectsWithSeq = %v, want ascending subject IDs", posted)
	}

	entries := 0
	for _, s := range g.PredicateEntriesSeq(q) {
		_ = s
		entries++
	}
	if entries != len(subs) {
		t.Fatalf("PredicateEntriesSeq = %d entries, want %d", entries, len(subs))
	}

	total := 0
	for range g.TriplesSeq() {
		total++
	}
	if total != g.NumTriples() {
		t.Fatalf("TriplesSeq = %d triples, NumTriples = %d", total, g.NumTriples())
	}
}

// Breaking out of a Seq range stops enumeration (posting-list early stop):
// the body must run exactly once per break.
func TestSeqAccessorsEarlyStop(t *testing.T) {
	g, subs, p, _, obj := iterFixture(t)

	n := 0
	for range g.SubjectsWithSeq(p, EntityValue(obj)) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("SubjectsWithSeq visited %d subjects after break, want 1", n)
	}

	n = 0
	for range g.TriplesSeq() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("TriplesSeq visited %d triples, want 3", n)
	}

	// After an early break the locks must be released: a write must not
	// deadlock.
	if err := g.Assert(Triple{Subject: subs[0], Predicate: p, Object: StringValue("post-break")}); err != nil {
		t.Fatalf("assert after early break: %v", err)
	}
}
