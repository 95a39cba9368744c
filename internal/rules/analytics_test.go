package rules

import (
	"fmt"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

func TestDeriveComponents(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	link := mustPred(t, g, "link")
	// Two components {a,b,c} and {d,e}; f isolated.
	a := mustEnt(t, g, "a")
	b := mustEnt(t, g, "b")
	c := mustEnt(t, g, "c")
	d := mustEnt(t, g, "d")
	ee := mustEnt(t, g, "e")
	f := mustEnt(t, g, "f")
	mustAssert(t, g, a, link, kg.EntityValue(b))
	mustAssert(t, g, b, link, kg.EntityValue(c))
	mustAssert(t, g, d, link, kg.EntityValue(ee))

	rs, err := NewRuleSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, rs)
	comp := mustPred(t, g, "component")
	rep, err := e.DeriveComponents(comp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Facts != 5 {
		t.Fatalf("component facts = %d, want 5 (f is isolated)", rep.Facts)
	}
	for _, m := range []kg.EntityID{a, b, c} {
		if !hasDerived(e, m, comp, kg.EntityValue(a)) {
			t.Fatalf("component(%d) != a", m)
		}
	}
	for _, m := range []kg.EntityID{d, ee} {
		if !hasDerived(e, m, comp, kg.EntityValue(d)) {
			t.Fatalf("component(%d) != d", m)
		}
	}
	if e.Derived().FactCount(f, comp) != 0 {
		t.Fatal("isolated entity got a component fact")
	}

	// Merge the components and re-derive: the old labels are replaced.
	mustAssert(t, g, c, link, kg.EntityValue(d))
	rep, err = e.DeriveComponents(comp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Facts != 5 {
		t.Fatalf("merged component facts = %d, want 5", rep.Facts)
	}
	for _, m := range []kg.EntityID{a, b, c, d, ee} {
		if !hasDerived(e, m, comp, kg.EntityValue(a)) {
			t.Fatalf("merged component(%d) != a", m)
		}
	}
	if hasDerived(e, d, comp, kg.EntityValue(d)) {
		t.Fatal("stale component(d)=d fact survived the re-derivation")
	}
}

func TestDeriveSameAsClosure(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	sameAs := mustPred(t, g, "sameAs")
	a := mustEnt(t, g, "a")
	b := mustEnt(t, g, "b")
	c := mustEnt(t, g, "c")
	d := mustEnt(t, g, "d")
	ee := mustEnt(t, g, "e")
	// a=b, c=b (so {a,b,c}), d=e. Directions are irrelevant.
	mustAssert(t, g, a, sameAs, kg.EntityValue(b))
	mustAssert(t, g, c, sameAs, kg.EntityValue(b))
	mustAssert(t, g, ee, sameAs, kg.EntityValue(d))

	rs, _ := NewRuleSet(nil)
	e := newTestEngine(t, geng, rs)
	canon := mustPred(t, g, "canonical")
	rep, err := e.DeriveSameAsClosure(sameAs, canon)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Facts != 5 {
		t.Fatalf("closure facts = %d, want 5", rep.Facts)
	}
	for _, m := range []kg.EntityID{a, b, c} {
		if !hasDerived(e, m, canon, kg.EntityValue(a)) {
			t.Fatalf("canonical(%d) != a", m)
		}
	}
	for _, m := range []kg.EntityID{d, ee} {
		if !hasDerived(e, m, canon, kg.EntityValue(d)) {
			t.Fatalf("canonical(%d) != d", m)
		}
	}
}

func TestDeriveKHop(t *testing.T) {
	const n = 6
	g, geng, _, ents, _, _ := chainWorld(t, n)
	rs, _ := NewRuleSet(nil)
	e := newTestEngine(t, geng, rs)
	near := mustPred(t, g, "near")
	rep, err := e.DeriveKHop(near, []kg.EntityID{ents[0], ents[0], ents[3]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Edges are undirected in the snapshot: from a0 within 2 hops ->
	// a1, a2; from a3 -> a1, a2, a4, a5.
	if rep.Facts != 6 {
		t.Fatalf("khop facts = %d, want 6", rep.Facts)
	}
	for _, want := range []struct {
		src, dst int
	}{{0, 1}, {0, 2}, {3, 1}, {3, 2}, {3, 4}, {3, 5}} {
		if !hasDerived(e, ents[want.src], near, kg.EntityValue(ents[want.dst])) {
			t.Fatalf("near(a%d, a%d) missing", want.src, want.dst)
		}
	}
	if hasDerived(e, ents[0], near, kg.EntityValue(ents[0])) {
		t.Fatal("source reached itself")
	}

	if _, err := e.DeriveKHop(near, nil, 2); err == nil {
		t.Fatal("khop without sources succeeded")
	}
	if _, err := e.DeriveKHop(near, []kg.EntityID{ents[0]}, 0); err == nil {
		t.Fatal("khop with k=0 succeeded")
	}
}

// TestRuleOverAnalyticsPredicate: analytics facts seed rule bodies, and
// replacing the materialization cascades through the derived facts that
// consumed the removed labels.
func TestRuleOverAnalyticsPredicate(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	link := mustPred(t, g, "link")
	a := mustEnt(t, g, "a")
	b := mustEnt(t, g, "b")
	c := mustEnt(t, g, "c")
	d := mustEnt(t, g, "d")
	mustAssert(t, g, a, link, kg.EntityValue(b))
	mustAssert(t, g, c, link, kg.EntityValue(d))

	mustPred(t, g, "component")
	rs, err := ParseRules(g, `groupedWith(X, R) :- component(X, R).`)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, rs)
	comp, _ := g.PredicateByName("component")
	grouped, _ := g.PredicateByName("groupedWith")

	if _, err := e.DeriveComponents(comp.ID); err != nil {
		t.Fatal(err)
	}
	if !hasDerived(e, c, grouped.ID, kg.EntityValue(c)) {
		t.Fatal("rule did not fire over analytics facts")
	}

	// Merge the components: c's label flips to a; the grouped fact for
	// the old label must cascade away and the new one appear.
	mustAssert(t, g, b, link, kg.EntityValue(c))
	if _, err := e.DeriveComponents(comp.ID); err != nil {
		t.Fatal(err)
	}
	if hasDerived(e, c, grouped.ID, kg.EntityValue(c)) {
		t.Fatal("grouped fact over removed analytics label survived")
	}
	if !hasDerived(e, c, grouped.ID, kg.EntityValue(a)) {
		t.Fatal("grouped fact over new analytics label missing")
	}
}

func TestAnalyticsRejectsRuleHead(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	mustPred(t, g, "link")
	rs, err := ParseRules(g, `mirror(X, Y) :- link(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, rs)
	mirror, _ := g.PredicateByName("mirror")
	if _, err := e.DeriveComponents(mirror.ID); err == nil {
		t.Fatal("analytics over a rule head succeeded")
	}
	if _, err := e.DeriveComponents(kg.NoPredicate); err == nil {
		t.Fatal("analytics without an output predicate succeeded")
	}
}

// TestAnalyticsVisibleThroughQueries: a derived analytics predicate is
// a first-class citizen of the attached engine's query surface.
func TestAnalyticsVisibleThroughQueries(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	link := mustPred(t, g, "link")
	ents := make([]kg.EntityID, 4)
	for i := range ents {
		ents[i] = mustEnt(t, g, fmt.Sprintf("n%d", i))
	}
	mustAssert(t, g, ents[0], link, kg.EntityValue(ents[1]))
	mustAssert(t, g, ents[2], link, kg.EntityValue(ents[3]))
	rs, _ := NewRuleSet(nil)
	e := newTestEngine(t, geng, rs)
	geng.AttachDerived(e.Derived())
	comp := mustPred(t, g, "component")
	if _, err := e.DeriveComponents(comp); err != nil {
		t.Fatal(err)
	}
	var rows int
	for _, err := range geng.StreamConjunctive([]graphengine.Clause{
		{Subject: graphengine.V("X"), Predicate: comp, Object: graphengine.Term{Const: kg.EntityValue(ents[0])}},
	}, graphengine.QueryOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if rows != 2 {
		t.Fatalf("component members of n0 = %d rows, want 2", rows)
	}
}
