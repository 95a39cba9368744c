package kg

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func mustEntity(t *testing.T, g *Graph, key, name string, types ...TypeID) EntityID {
	t.Helper()
	id, err := g.AddEntity(Entity{Key: key, Name: name, Types: types})
	if err != nil {
		t.Fatalf("AddEntity(%q): %v", key, err)
	}
	return id
}

func mustPredicate(t *testing.T, g *Graph, name string) PredicateID {
	t.Helper()
	id, err := g.AddPredicate(Predicate{Name: name})
	if err != nil {
		t.Fatalf("AddPredicate(%q): %v", name, err)
	}
	return id
}

func TestAddEntityDedup(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "LeBron James")
	b := mustEntity(t, g, "Q1", "different name ignored")
	if a != b {
		t.Fatalf("duplicate key produced distinct IDs: %v vs %v", a, b)
	}
	if g.NumEntities() != 1 {
		t.Fatalf("NumEntities = %d, want 1", g.NumEntities())
	}
	if got := g.Entity(a).Name; got != "LeBron James" {
		t.Fatalf("first-writer-wins violated: name = %q", got)
	}
}

func TestAddEntityEmptyKey(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddEntity(Entity{Key: ""}); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestEntityByKey(t *testing.T) {
	g := NewGraph()
	id := mustEntity(t, g, "Q7", "Joe Root")
	e, ok := g.EntityByKey("Q7")
	if !ok || e.ID != id {
		t.Fatalf("EntityByKey(Q7) = %v,%v; want id %v", e, ok, id)
	}
	if _, ok := g.EntityByKey("missing"); ok {
		t.Fatal("EntityByKey returned ok for unknown key")
	}
}

func TestAssertAndFacts(t *testing.T) {
	g := NewGraph()
	lebron := mustEntity(t, g, "Q1", "LeBron James")
	bball := mustEntity(t, g, "Q2", "Basketball Player")
	occ := mustPredicate(t, g, "occupation")

	tr := Triple{Subject: lebron, Predicate: occ, Object: EntityValue(bball)}
	if err := g.Assert(tr); err != nil {
		t.Fatalf("Assert: %v", err)
	}
	facts := g.Facts(lebron, occ)
	if len(facts) != 1 || facts[0].Object.Entity != bball {
		t.Fatalf("Facts = %v, want one occupation fact", facts)
	}
	if !g.HasFact(lebron, occ, EntityValue(bball)) {
		t.Fatal("HasFact = false for asserted fact")
	}
	if g.HasFact(bball, occ, EntityValue(lebron)) {
		t.Fatal("HasFact = true for reversed fact")
	}
}

func TestAssertValidation(t *testing.T) {
	g := NewGraph()
	e := mustEntity(t, g, "Q1", "A")
	p := mustPredicate(t, g, "p")
	cases := []Triple{
		{Subject: 999, Predicate: p, Object: IntValue(1)},
		{Subject: e, Predicate: 999, Object: IntValue(1)},
		{Subject: e, Predicate: p},                                // zero object
		{Subject: e, Predicate: p, Object: EntityValue(777)},      // unknown object entity
		{Subject: NoEntity, Predicate: p, Object: IntValue(1)},    // zero subject
		{Subject: e, Predicate: NoPredicate, Object: IntValue(1)}, // zero predicate
	}
	for i, tr := range cases {
		if err := g.Assert(tr); err == nil {
			t.Errorf("case %d: invalid triple %v accepted", i, tr)
		}
	}
	if g.NumTriples() != 0 {
		t.Fatalf("NumTriples = %d after rejected asserts", g.NumTriples())
	}
}

func TestAssertDedup(t *testing.T) {
	g := NewGraph()
	e := mustEntity(t, g, "Q1", "A")
	p := mustPredicate(t, g, "height")
	tr := Triple{Subject: e, Predicate: p, Object: IntValue(203)}
	for i := 0; i < 3; i++ {
		if err := g.Assert(tr); err != nil {
			t.Fatalf("Assert #%d: %v", i, err)
		}
	}
	if g.NumTriples() != 1 {
		t.Fatalf("NumTriples = %d, want 1 after duplicate asserts", g.NumTriples())
	}
	if len(g.appendMutationsSince(nil, 0)) != 1 {
		t.Fatalf("mutation log has %d entries, want 1", len(g.appendMutationsSince(nil, 0)))
	}
}

func TestRetract(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	b := mustEntity(t, g, "Q2", "B")
	p := mustPredicate(t, g, "knows")
	tr := Triple{Subject: a, Predicate: p, Object: EntityValue(b)}
	if err := g.Assert(tr); err != nil {
		t.Fatal(err)
	}
	if !g.Retract(tr) {
		t.Fatal("Retract returned false for asserted fact")
	}
	if g.Retract(tr) {
		t.Fatal("Retract returned true for already-retracted fact")
	}
	if g.HasFact(a, p, EntityValue(b)) {
		t.Fatal("fact still present after retract")
	}
	if len(g.Facts(a, p)) != 0 {
		t.Fatal("Facts non-empty after retract")
	}
	if len(subjectsWith(g, p, EntityValue(b))) != 0 {
		t.Fatal("posting non-empty after retract")
	}
	muts := g.appendMutationsSince(nil, 0)
	if len(muts) != 2 || muts[1].Op != OpRetract {
		t.Fatalf("mutation log = %v, want assert+retract", muts)
	}
}

func TestReassertAfterRetract(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	p := mustPredicate(t, g, "dob")
	old := Triple{Subject: a, Predicate: p, Object: StringValue("1980-09-09")}
	fresh := Triple{Subject: a, Predicate: p, Object: StringValue("1979-07-23")}
	if err := g.Assert(old); err != nil {
		t.Fatal(err)
	}
	g.Retract(old)
	if err := g.Assert(fresh); err != nil {
		t.Fatal(err)
	}
	facts := g.Facts(a, p)
	if len(facts) != 1 || facts[0].Object.Str != "1979-07-23" {
		t.Fatalf("facts after replace = %v", facts)
	}
}

// An entity's outgoing edges come from its fact lists, its incoming edges
// under a predicate from that predicate's posting.
func TestIncomingOutgoing(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	b := mustEntity(t, g, "Q2", "B")
	c := mustEntity(t, g, "Q3", "C")
	p := mustPredicate(t, g, "links")
	for _, s := range []EntityID{a, b} {
		if err := g.Assert(Triple{Subject: s, Predicate: p, Object: EntityValue(c)}); err != nil {
			t.Fatal(err)
		}
	}
	out := 0
	g.OutgoingFunc(a, func(tr Triple) bool {
		if tr.Subject != a || !tr.Object.Equal(EntityValue(c)) {
			t.Fatalf("OutgoingFunc(a) yielded %v", tr)
		}
		out++
		return true
	})
	if out != 1 {
		t.Fatalf("OutgoingFunc(a) = %d triples, want 1", out)
	}
	if subs := subjectsWith(g, p, EntityValue(c)); !slices.Equal(subs, []EntityID{a, b}) {
		t.Fatalf("posting of (links, c) = %v, want [%v %v]", subs, a, b)
	}
}

// A visitor whose callback returns false stops after that element and
// releases its lock: a write right after it must not block.
func TestVisitorsEarlyStop(t *testing.T) {
	g := NewGraphWithShards(4)
	obj := mustEntity(t, g, "obj", "O")
	p := mustPredicate(t, g, "p")
	for i := 0; i < 6; i++ {
		s := mustEntity(t, g, fmt.Sprintf("s%d", i), "S")
		if err := g.Assert(Triple{Subject: s, Predicate: p, Object: EntityValue(obj)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	g.SubjectsWithFunc(p, EntityValue(obj), func(EntityID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("SubjectsWithFunc visited %d subjects after a stop, want 1", n)
	}
	n = 0
	if seq := g.TriplesSnapshot(func(Triple) bool { n++; return n < 3 }); n != 3 || seq != g.LastSeq() {
		t.Fatalf("TriplesSnapshot visited %d triples at watermark %d, want 3 at %d", n, seq, g.LastSeq())
	}
	if err := g.Assert(Triple{Subject: obj, Predicate: p, Object: StringValue("after the stop")}); err != nil {
		t.Fatal(err)
	}
}

func TestAllTriplesDeterministic(t *testing.T) {
	g := NewGraph()
	p := mustPredicate(t, g, "p")
	for i := 0; i < 20; i++ {
		mustEntity(t, g, fmt.Sprintf("Q%d", i), "e")
	}
	for i := 1; i <= 19; i++ {
		if err := g.Assert(Triple{Subject: EntityID(i), Predicate: p, Object: IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	a := g.AllTriples()
	b := g.AllTriples()
	if len(a) != 19 || len(b) != 19 {
		t.Fatalf("AllTriples lengths = %d,%d", len(a), len(b))
	}
	for i := range a {
		if a[i].SPO() != b[i].SPO() {
			t.Fatalf("non-deterministic order at %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Subject < a[i-1].Subject {
			t.Fatalf("subjects not sorted at %d", i)
		}
	}
}

func TestMutationsSince(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	p := mustPredicate(t, g, "p")
	for i := 0; i < 5; i++ {
		if err := g.Assert(Triple{Subject: a, Predicate: p, Object: IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(g.appendMutationsSince(nil, 0)); got != 5 {
		t.Fatalf("MutationsSince(0) = %d, want 5", got)
	}
	if got := len(g.appendMutationsSince(nil, 3)); got != 2 {
		t.Fatalf("MutationsSince(3) = %d, want 2", got)
	}
	if got := len(g.appendMutationsSince(nil, 5)); got != 0 {
		t.Fatalf("MutationsSince(5) = %d, want 0", got)
	}
	if g.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", g.LastSeq())
	}
}

func TestPredicateFrequency(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	p := mustPredicate(t, g, "p")
	q := mustPredicate(t, g, "q")
	for i := 0; i < 4; i++ {
		if err := g.Assert(Triple{Subject: a, Predicate: p, Object: IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Assert(Triple{Subject: a, Predicate: q, Object: IntValue(0)}); err != nil {
		t.Fatal(err)
	}
	if g.PredicateFrequency(p) != 4 || g.PredicateFrequency(q) != 1 {
		t.Fatalf("freqs = %d,%d want 4,1", g.PredicateFrequency(p), g.PredicateFrequency(q))
	}
	g.Retract(Triple{Subject: a, Predicate: p, Object: IntValue(0)})
	if g.PredicateFrequency(p) != 3 {
		t.Fatalf("freq after retract = %d, want 3", g.PredicateFrequency(p))
	}
}

func TestConcurrentAssertsAndReads(t *testing.T) {
	g := NewGraph()
	p := mustPredicate(t, g, "p")
	const n = 64
	ids := make([]EntityID, n)
	for i := range ids {
		ids[i] = mustEntity(t, g, fmt.Sprintf("Q%d", i), "e")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				_ = g.Assert(Triple{Subject: ids[i], Predicate: p, Object: IntValue(int64(w*1000 + i))})
				_ = g.Facts(ids[i], p)
				_ = g.NumTriples()
			}
		}(w)
	}
	wg.Wait()
	if got := g.NumTriples(); got != 8*n {
		t.Fatalf("NumTriples = %d, want %d", got, 8*n)
	}
}

func TestStats(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	b := mustEntity(t, g, "Q2", "B")
	rel := mustPredicate(t, g, "rel")
	height := mustPredicate(t, g, "height")
	if err := g.Assert(Triple{Subject: a, Predicate: rel, Object: EntityValue(b)}); err != nil {
		t.Fatal(err)
	}
	if err := g.Assert(Triple{Subject: a, Predicate: height, Object: IntValue(203)}); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.Triples != 2 || s.EntityTriples != 1 || s.LiteralTriples != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDegree != 2 {
		t.Fatalf("MaxOutDegree = %d, want 2", s.MaxOutDegree)
	}
	rare := s.RarePredicates(2)
	if len(rare) != 2 {
		t.Fatalf("RarePredicates(2) = %v, want both predicates", rare)
	}
	top := s.TopPredicates(1)
	if len(top) != 1 {
		t.Fatalf("TopPredicates(1) = %v", top)
	}
}

func TestValueEqualityAndKeys(t *testing.T) {
	now := time.Date(2023, 6, 18, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		a, b  Value
		equal bool
	}{
		{EntityValue(1), EntityValue(1), true},
		{EntityValue(1), EntityValue(2), false},
		{StringValue("x"), StringValue("x"), true},
		{StringValue("x"), StringValue("y"), false},
		{IntValue(5), IntValue(5), true},
		{IntValue(5), FloatValue(5), false},
		{FloatValue(1.5), FloatValue(1.5), true},
		{TimeValue(now), TimeValue(now.In(time.FixedZone("X", 3600))), true},
		{BoolValue(true), BoolValue(true), true},
		{BoolValue(true), BoolValue(false), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("case %d: Equal(%v,%v) = %v, want %v", i, c.a, c.b, got, c.equal)
		}
		if c.equal && c.a.Key() != c.b.Key() {
			t.Errorf("case %d: equal values with different keys %q %q", i, c.a.Key(), c.b.Key())
		}
		if !c.equal && c.a.Kind == c.b.Kind && c.a.Key() == c.b.Key() {
			t.Errorf("case %d: unequal same-kind values share key %q", i, c.a.Key())
		}
	}
}

func TestValuePredicatesAndString(t *testing.T) {
	if !EntityValue(3).IsEntity() || EntityValue(3).IsLiteral() {
		t.Fatal("EntityValue classification wrong")
	}
	if IntValue(1).IsEntity() || !IntValue(1).IsLiteral() {
		t.Fatal("IntValue classification wrong")
	}
	if (Value{}).IsLiteral() {
		t.Fatal("zero Value must not be a literal")
	}
	if !BoolValue(true).Bool() || BoolValue(false).Bool() {
		t.Fatal("Bool() payload wrong")
	}
	for _, v := range []Value{EntityValue(1), StringValue("a"), IntValue(2), FloatValue(2.5), BoolValue(true), TimeValue(time.Now())} {
		if v.String() == "" || v.String() == "<invalid>" {
			t.Errorf("String() for %v kind rendered %q", v.Kind, v.String())
		}
	}
}
