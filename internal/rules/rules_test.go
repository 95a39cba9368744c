package rules

import (
	"fmt"
	"math"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

// --- helpers ------------------------------------------------------------

func mustEnt(t testing.TB, g *kg.Graph, key string) kg.EntityID {
	t.Helper()
	if e, ok := g.EntityByKey(key); ok {
		return e.ID
	}
	id, err := g.AddEntity(kg.Entity{Key: key, Name: key})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustPred(t testing.TB, g *kg.Graph, name string) kg.PredicateID {
	t.Helper()
	if p, ok := g.PredicateByName(name); ok {
		return p.ID
	}
	id, err := g.AddPredicate(kg.Predicate{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustAssert(t testing.TB, g *kg.Graph, s kg.EntityID, p kg.PredicateID, o kg.Value) {
	t.Helper()
	if err := g.Assert(kg.Triple{Subject: s, Predicate: p, Object: o}); err != nil {
		t.Fatal(err)
	}
}

// newTestEngine builds a rules engine without the background maintainer
// so staleness is fully test-controlled, and closes it on cleanup.
func newTestEngine(t testing.TB, geng *graphengine.Engine, rs *RuleSet) *Engine {
	t.Helper()
	e, err := New(geng, rs, Options{NoMaintainer: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// hasDerived probes the engine's derived fact graph.
func hasDerived(e *Engine, s kg.EntityID, p kg.PredicateID, o kg.Value) bool {
	return e.Derived().HasFact(s, p, o)
}

// derivedKeys snapshots the engine's rule-derived fact keys (analytics
// predicates excluded).
func derivedKeys(e *Engine) map[kg.TripleKey]bool {
	out := make(map[kg.TripleKey]bool)
	for _, p := range e.rs.Heads() {
		e.st.each(p, func(t kg.Triple) { out[t.IdentityKey()] = true })
	}
	return out
}

// --- naive reference evaluator ------------------------------------------
//
// An independent bottom-up fixpoint with no planner, no indexes, no
// delta machinery: solve every rule body by brute force over the full
// fact list (base triples plus facts derived so far) until nothing new
// appears. Matching semantics mirror the executor exactly: constant
// terms match under SPO identity (MapKey), variable joins under Equal —
// the asymmetry NaN exposes.

func naiveEval(g *kg.Graph, rs *RuleSet) map[kg.TripleKey]kg.Triple {
	var base []kg.Triple
	g.TriplesSnapshot(func(t kg.Triple) bool {
		base = append(base, t)
		return true
	})
	derived := make(map[kg.TripleKey]kg.Triple)
	for changed := true; changed; {
		changed = false
		facts := append([]kg.Triple(nil), base...)
		for _, t := range derived {
			facts = append(facts, t)
		}
		for _, r := range rs.rules {
			var rows []graphengine.Binding
			naiveMatch(facts, r.Body, graphengine.Binding{}, &rows)
			for _, row := range rows {
				h, ok := groundClause(r.Head, row)
				if !ok {
					continue
				}
				k := h.IdentityKey()
				if _, dup := derived[k]; !dup {
					derived[k] = h
					changed = true
				}
			}
		}
	}
	return derived
}

func naiveMatch(facts []kg.Triple, clauses []graphengine.Clause, b graphengine.Binding, out *[]graphengine.Binding) {
	if len(clauses) == 0 {
		row := make(graphengine.Binding, len(b))
		for k, v := range b {
			row[k] = v
		}
		*out = append(*out, row)
		return
	}
	c := clauses[0]
	for _, t := range facts {
		if t.Predicate != c.Predicate {
			continue
		}
		nb, ok := naiveUnify(c, t, b)
		if !ok {
			continue
		}
		naiveMatch(facts, clauses[1:], nb, out)
	}
}

func naiveUnify(c graphengine.Clause, t kg.Triple, b graphengine.Binding) (graphengine.Binding, bool) {
	nb := make(graphengine.Binding, len(b)+2)
	for k, val := range b {
		nb[k] = val
	}
	bind := func(name string, v kg.Value) bool {
		if cur, has := nb[name]; has {
			return cur.Equal(v)
		}
		nb[name] = v
		return true
	}
	if c.Subject.Var == "" {
		if c.Subject.Const.Entity != t.Subject {
			return nil, false
		}
	} else if !bind(c.Subject.Var, kg.EntityValue(t.Subject)) {
		return nil, false
	}
	if c.Object.Var == "" {
		if c.Object.Const.MapKey() != t.Object.MapKey() {
			return nil, false
		}
	} else if !bind(c.Object.Var, t.Object) {
		return nil, false
	}
	return nb, true
}

// requireFixpoint fails unless the engine's rule-derived store equals
// the naive reference closure over the current graph.
func requireFixpoint(t *testing.T, e *Engine, g *kg.Graph) {
	t.Helper()
	want := naiveEval(g, e.rs)
	got := derivedKeys(e)
	for k := range want {
		if !got[k] {
			t.Errorf("missing derived fact %+v", k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("spurious derived fact %+v", k)
		}
	}
	if t.Failed() {
		t.Fatalf("store/%d reference/%d diverged", len(got), len(want))
	}
}

// --- validation and stratification --------------------------------------

func TestRuleSetValidation(t *testing.T) {
	g := kg.NewGraph()
	p := mustPred(t, g, "p")
	q := mustPred(t, g, "q")
	v := graphengine.V
	cases := []struct {
		name string
		rule Rule
	}{
		{"empty body", Rule{Head: graphengine.Clause{Subject: v("X"), Predicate: p, Object: v("X")}}},
		{"no head predicate", Rule{
			Head: graphengine.Clause{Subject: v("X"), Object: v("X")},
			Body: []graphengine.Clause{{Subject: v("X"), Predicate: q, Object: v("Y")}},
		}},
		{"range restriction", Rule{
			Head: graphengine.Clause{Subject: v("X"), Predicate: p, Object: v("Z")},
			Body: []graphengine.Clause{{Subject: v("X"), Predicate: q, Object: v("Y")}},
		}},
		{"literal head subject", Rule{
			Head: graphengine.Clause{Subject: graphengine.Term{Const: kg.IntValue(3)}, Predicate: p, Object: v("Y")},
			Body: []graphengine.Clause{{Subject: v("X"), Predicate: q, Object: v("Y")}},
		}},
		{"literal body subject", Rule{
			Head: graphengine.Clause{Subject: v("X"), Predicate: p, Object: v("X")},
			Body: []graphengine.Clause{{Subject: graphengine.Term{Const: kg.StringValue("s")}, Predicate: q, Object: v("X")}},
		}},
		{"body clause without predicate", Rule{
			Head: graphengine.Clause{Subject: v("X"), Predicate: p, Object: v("X")},
			Body: []graphengine.Clause{{Subject: v("X"), Object: v("X")}},
		}},
	}
	for _, tc := range cases {
		if _, err := NewRuleSet([]Rule{tc.rule}); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	if _, err := NewRuleSet(nil); err != nil {
		t.Fatalf("empty rule set rejected: %v", err)
	}
}

func TestStratification(t *testing.T) {
	g := kg.NewGraph()
	base := mustPred(t, g, "base")
	a := mustPred(t, g, "a")
	b := mustPred(t, g, "b")
	cp := mustPred(t, g, "c")
	v := graphengine.V
	clause := func(p kg.PredicateID) graphengine.Clause {
		return graphengine.Clause{Subject: v("X"), Predicate: p, Object: v("Y")}
	}
	rs, err := NewRuleSet([]Rule{
		{Head: clause(cp), Body: []graphengine.Clause{clause(b), {Subject: v("X"), Predicate: cp, Object: v("Y")}}}, // c :- b, c
		{Head: clause(b), Body: []graphengine.Clause{clause(a)}},                                                    // b :- a
		{Head: clause(a), Body: []graphengine.Clause{clause(base)}},                                                 // a :- base
	})
	if err != nil {
		t.Fatal(err)
	}
	strata := rs.strata
	if len(strata) != 3 {
		t.Fatalf("strata = %v, want 3", strata)
	}
	// Dependencies first: a (rule 2), then b (rule 1), then c (rule 0).
	if strata[0][0] != 2 || strata[1][0] != 1 || strata[2][0] != 0 {
		t.Fatalf("strata order = %v, want [[2] [1] [0]]", strata)
	}

	// Mutual recursion shares a stratum.
	p1 := mustPred(t, g, "p1")
	p2 := mustPred(t, g, "p2")
	rs2, err := NewRuleSet([]Rule{
		{Head: clause(p1), Body: []graphengine.Clause{clause(p2)}},
		{Head: clause(p2), Body: []graphengine.Clause{clause(p1)}},
		{Head: clause(p2), Body: []graphengine.Clause{clause(base)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rs2.strata; len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("mutually recursive strata = %v, want one stratum of 3 rules", got)
	}
}

// --- parser -------------------------------------------------------------

func TestParseRules(t *testing.T) {
	g := kg.NewGraph()
	mustPred(t, g, "reportsTo")
	mustPred(t, g, "hasOp")
	alice := mustEnt(t, g, "alice")

	rs, err := ParseRules(g, `
		# transitive closure, with a comment
		chain(X, Y) :- reportsTo(X, Y).   % trailing comment too
		chain(X, Z) :- reportsTo(X, Y), chain(Y, Z).
		flagged(X, "=") :- hasOp(X, '='). # '='-literal constants round-trip
		weird(?who, 3.5) :- hasOp(?who, nan), reportsTo(@alice, ?who).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 4 {
		t.Fatalf("parsed %d rules, want 4", rs.Len())
	}
	if rs.Source() == "" {
		t.Fatal("source not recorded")
	}
	// Head predicates were created on demand.
	for _, name := range []string{"chain", "flagged", "weird"} {
		if _, ok := g.PredicateByName(name); !ok {
			t.Fatalf("head predicate %q not created", name)
		}
	}
	rules := rs.rules
	if rules[2].Head.Object.Const.Str != "=" || rules[2].Body[0].Object.Const.Str != "=" {
		t.Fatalf("'=' literal mangled: %+v", rules[2])
	}
	if !math.IsNaN(rules[3].Body[0].Object.Const.Flt) {
		t.Fatalf("nan literal mangled: %+v", rules[3].Body[0])
	}
	if rules[3].Body[1].Subject.Const.Entity != alice {
		t.Fatalf("@alice did not resolve: %+v", rules[3].Body[1])
	}
	if rules[3].Head.Subject.Var != "?who" {
		t.Fatalf("?who variable mangled: %+v", rules[3].Head)
	}

	for _, bad := range []string{
		`p(X, Y) :- nosuchpred(X, Y).`,     // unknown body predicate
		`p(X, Y) :- reportsTo(@ghost, Y).`, // unknown entity key
		`p(X, Y) :- reportsTo(x, Y).`,      // bare lowercase term
		`p(X, Y) :- reportsTo(X, "open.`,   // unterminated string
		`p(X, Y) reportsTo(X, Y).`,         // missing :-
		`p(X, Z) :- reportsTo(X, Y).`,      // range restriction
	} {
		if _, err := ParseRules(g, bad); err == nil {
			t.Errorf("parse %q succeeded, want error", bad)
		}
	}
}

// --- derivation ---------------------------------------------------------

// chainWorld builds a line graph a0 -reportsTo-> a1 -> ... -> a{n-1}
// with the two-rule transitive closure program.
func chainWorld(t testing.TB, n int) (*kg.Graph, *graphengine.Engine, *RuleSet, []kg.EntityID, kg.PredicateID, kg.PredicateID) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	ents := make([]kg.EntityID, n)
	for i := range ents {
		ents[i] = mustEnt(t, g, fmt.Sprintf("a%d", i))
	}
	rt := mustPred(t, g, "reportsTo")
	for i := 0; i+1 < n; i++ {
		mustAssert(t, g, ents[i], rt, kg.EntityValue(ents[i+1]))
	}
	rs, err := ParseRules(g, `
		chain(X, Y) :- reportsTo(X, Y).
		chain(X, Z) :- reportsTo(X, Y), chain(Y, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	chain, _ := g.PredicateByName("chain")
	return g, geng, rs, ents, rt, chain.ID
}

func TestFullDerivationClosure(t *testing.T) {
	const n = 8
	g, geng, rs, ents, _, chain := chainWorld(t, n)
	e := newTestEngine(t, geng, rs)
	want := n * (n - 1) / 2
	if got := e.Derived().NumTriples(); got != want {
		t.Fatalf("closure size = %d, want %d", got, want)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !hasDerived(e, ents[i], chain, kg.EntityValue(ents[j])) {
				t.Fatalf("chain(a%d, a%d) missing", i, j)
			}
		}
	}
	requireFixpoint(t, e, g)
	if s := e.Stats(); s.FullRuns != 1 || s.Rules != 2 || s.Facts != want {
		t.Fatalf("stats = %+v", s)
	}
}

func TestIncrementalAssertExtendsClosure(t *testing.T) {
	const n = 6
	g, geng, rs, ents, rt, chain := chainWorld(t, n)
	e := newTestEngine(t, geng, rs)
	// Append a new tail entity: closure gains n new pairs.
	tail := mustEnt(t, g, "tail")
	mustAssert(t, g, ents[n-1], rt, kg.EntityValue(tail))
	e.Sync()
	if !hasDerived(e, ents[0], chain, kg.EntityValue(tail)) {
		t.Fatal("chain(a0, tail) missing after incremental assert")
	}
	requireFixpoint(t, e, g)
	if s := e.Stats(); s.FullRuns != 1 {
		t.Fatalf("incremental assert triggered a full run: %+v", s)
	}
}

func TestIncrementalRetractSplitsClosure(t *testing.T) {
	const n = 7
	g, geng, rs, ents, rt, chain := chainWorld(t, n)
	e := newTestEngine(t, geng, rs)
	// Cut the chain in the middle: no pair may span the cut.
	cut := n / 2
	if !g.Retract(kg.Triple{Subject: ents[cut], Predicate: rt, Object: kg.EntityValue(ents[cut+1])}) {
		t.Fatal("retract failed")
	}
	e.Sync()
	if hasDerived(e, ents[0], chain, kg.EntityValue(ents[n-1])) {
		t.Fatal("chain(a0, a6) survived the cut")
	}
	if !hasDerived(e, ents[0], chain, kg.EntityValue(ents[cut])) {
		t.Fatal("chain(a0, a_cut) lost below the cut")
	}
	requireFixpoint(t, e, g)
	if s := e.Stats(); s.FullRuns != 1 {
		t.Fatalf("incremental retract triggered a full run: %+v", s)
	}
}

// TestRetractKillsSelfSupportGhost is the well-foundedness fixture: in a
// two-node cycle the closure facts can all justify each other, so a
// cascade that trusted surviving supports (or skipped the store copy of
// a base-retracted fact) would leave a ghost closure behind after the
// cycle is cut.
func TestRetractKillsSelfSupportGhost(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	a := mustEnt(t, g, "a")
	b := mustEnt(t, g, "b")
	rt := mustPred(t, g, "reportsTo")
	mustAssert(t, g, a, rt, kg.EntityValue(b))
	mustAssert(t, g, b, rt, kg.EntityValue(a))
	rs, err := ParseRules(g, `
		chain(X, Y) :- reportsTo(X, Y).
		chain(X, Z) :- reportsTo(X, Y), chain(Y, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, rs)
	// Cycle closure: chain(a,b), chain(b,a), chain(a,a), chain(b,b).
	if e.Derived().NumTriples() != 4 {
		t.Fatalf("cycle closure size = %d, want 4", e.Derived().NumTriples())
	}
	if !g.Retract(kg.Triple{Subject: a, Predicate: rt, Object: kg.EntityValue(b)}) {
		t.Fatal("retract failed")
	}
	e.Sync()
	chain, _ := g.PredicateByName("chain")
	if hasDerived(e, a, chain.ID, kg.EntityValue(a)) || hasDerived(e, b, chain.ID, kg.EntityValue(b)) {
		t.Fatal("self-loop closure facts survived as self-supporting ghosts")
	}
	if !hasDerived(e, b, chain.ID, kg.EntityValue(a)) {
		t.Fatal("chain(b, a) lost; its base edge is intact")
	}
	requireFixpoint(t, e, g)
}

// TestBaseOverlapRetract: a head-predicate fact asserted in the base
// graph too. Retracting the base copy must keep the fact visible when
// it is still derivable, and re-derivation must not resurrect it
// through its own (retracted) base copy.
func TestBaseOverlapRetract(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	a := mustEnt(t, g, "a")
	b := mustEnt(t, g, "b")
	rt := mustPred(t, g, "reportsTo")
	mustAssert(t, g, a, rt, kg.EntityValue(b))
	rs, err := ParseRules(g, `chain(X, Y) :- reportsTo(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	chainPred, _ := g.PredicateByName("chain")
	chain := chainPred.ID
	// Base-assert the same fact the rule derives.
	mustAssert(t, g, a, chain, kg.EntityValue(b))
	e := newTestEngine(t, geng, rs)
	view := graphengine.Union(g, e.Derived())
	if !view.HasFact(a, chain, kg.EntityValue(b)) {
		t.Fatal("fact invisible while doubly asserted")
	}
	// Retract the base copy: still derivable from reportsTo.
	if !g.Retract(kg.Triple{Subject: a, Predicate: chain, Object: kg.EntityValue(b)}) {
		t.Fatal("retract failed")
	}
	e.Sync()
	if !view.HasFact(a, chain, kg.EntityValue(b)) {
		t.Fatal("derivable fact lost with its base copy")
	}
	// Now retract the supporting edge: the fact must disappear entirely.
	if !g.Retract(kg.Triple{Subject: a, Predicate: rt, Object: kg.EntityValue(b)}) {
		t.Fatal("retract failed")
	}
	e.Sync()
	if view.HasFact(a, chain, kg.EntityValue(b)) {
		t.Fatal("underivable fact survived")
	}
	requireFixpoint(t, e, g)
}

func TestFloorPassTriggersFullRederive(t *testing.T) {
	const n = 5
	g, geng, rs, ents, rt, _ := chainWorld(t, n)
	e := newTestEngine(t, geng, rs)
	runs := e.Stats().FullRuns
	// Mutate, then truncate the log past the engine's cursor before it
	// pumps: the pull comes back incomplete and the engine must rebuild.
	tail := mustEnt(t, g, "tail")
	mustAssert(t, g, ents[n-1], rt, kg.EntityValue(tail))
	g.TruncateLog(g.LastSeq())
	e.Sync()
	if got := e.Stats().FullRuns; got != runs+1 {
		t.Fatalf("full runs = %d, want %d after floor pass", got, runs+1)
	}
	requireFixpoint(t, e, g)
}

// --- adversarial value fixtures -----------------------------------------

// TestNaNRuleSemantics: NaN-valued facts flow into single-occurrence
// head variables but never join (Equal semantics), and incremental
// maintenance must agree with from-scratch evaluation on both counts —
// delta substitution is where a careless implementation turns a NaN
// join variable into an identity-matching constant.
func TestNaNRuleSemantics(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	a := mustEnt(t, g, "a")
	b := mustEnt(t, g, "b")
	score := mustPred(t, g, "score")
	alsoScore := mustPred(t, g, "alsoScore")
	rs, err := ParseRules(g, `
		copied(X, V) :- score(X, V).
		agreed(X, Y) :- score(X, V), alsoScore(Y, V).
	`)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, rs)
	copied, _ := g.PredicateByName("copied")
	agreed, _ := g.PredicateByName("agreed")

	nan := kg.FloatValue(math.NaN())
	mustAssert(t, g, a, score, nan)
	mustAssert(t, g, b, alsoScore, nan)
	e.Sync()
	// Single occurrence: the NaN propagates into the head.
	if !hasDerived(e, a, copied.ID, nan) {
		t.Fatal("copied(a, NaN) missing")
	}
	// Join on NaN: Equal(NaN, NaN) is false, so no agreement.
	if hasDerived(e, a, agreed.ID, kg.EntityValue(b)) {
		t.Fatal("agreed(a, b) derived through a NaN join")
	}
	requireFixpoint(t, e, g)

	// Retract the NaN fact: the copied fact must go too.
	if !g.Retract(kg.Triple{Subject: a, Predicate: score, Object: nan}) {
		t.Fatal("retract failed")
	}
	e.Sync()
	if hasDerived(e, a, copied.ID, nan) {
		t.Fatal("copied(a, NaN) survived its source")
	}
	requireFixpoint(t, e, g)
}

// TestOperatorLiteralConstants: values that look like query/rule syntax
// ('=', ':-', commas) are plain data end to end.
func TestOperatorLiteralConstants(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	a := mustEnt(t, g, "a")
	b := mustEnt(t, g, "b")
	hasOp := mustPred(t, g, "hasOp")
	mustAssert(t, g, a, hasOp, kg.StringValue("="))
	mustAssert(t, g, b, hasOp, kg.StringValue(":- , \"quoted\""))
	rs, err := ParseRules(g, `
		eqOp(X, "matched") :- hasOp(X, "=").
		weirdOp(X, V) :- hasOp(X, V).
	`)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, rs)
	eqOp, _ := g.PredicateByName("eqOp")
	weirdOp, _ := g.PredicateByName("weirdOp")
	if !hasDerived(e, a, eqOp.ID, kg.StringValue("matched")) {
		t.Fatal(`eqOp(a, "matched") missing`)
	}
	if hasDerived(e, b, eqOp.ID, kg.StringValue("matched")) {
		t.Fatal(`eqOp(b, ...) derived; ':- ,' literal matched "="`)
	}
	if !hasDerived(e, b, weirdOp.ID, kg.StringValue(":- , \"quoted\"")) {
		t.Fatal("operator-soup literal mangled in flight")
	}
	requireFixpoint(t, e, g)
}

// TestUnregisteredPredicatesRefused: the derived store reads the base
// graph's dictionaries, so a rule head or an analytics output the graph
// has not registered is refused up front rather than dropped fact by
// fact.
func TestUnregisteredPredicatesRefused(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	base := mustPred(t, g, "base")
	v := graphengine.V
	rs, err := NewRuleSet([]Rule{{
		Head: graphengine.Clause{Subject: v("X"), Predicate: base + 1, Object: v("Y")},
		Body: []graphengine.Clause{{Subject: v("X"), Predicate: base, Object: v("Y")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(geng, rs, Options{NoMaintainer: true}); err == nil {
		t.Fatal("New accepted a rule whose head predicate the graph has not registered")
	}
	empty, err := NewRuleSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, empty)
	if _, err := e.DeriveComponents(base + 1); err == nil {
		t.Fatal("DeriveComponents accepted an output predicate the graph has not registered")
	}
}
