package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

// maintenanceProgram covers the shapes the store's reverse index has to
// get right: a closure (chain), heads whose object is bound (rooted, and
// chain itself once the edges converge on e0 — the fanin shape), a
// body-only variable (S in link), one predicate used twice in a body
// (peer: reportsTo(x, y) grounds both atoms of peer(x, x), so the
// support repeats a body key; in fanout the repeated key grounds an
// atom that binds the whole head and one that does not), and a body
// atom that binds no head variable (spouse(@e0, S) in watched).
const maintenanceProgram = `
chain(X, Y) :- reportsTo(X, Y).
chain(X, Z) :- chain(X, Y), reportsTo(Y, Z).
rooted(X, @e0) :- chain(X, @e0).
link(X, Y) :- collaborator(X, Y), spouse(Y, S).
peer(X, Z) :- reportsTo(X, Y), reportsTo(Z, Y).
fanout(X, Y) :- reportsTo(X, Y), reportsTo(X, Z).
watched(X, Y) :- collaborator(X, Y), spouse(@e0, S).
`

// maintenanceEntities is the size of FuzzRuleMaintenance's graph.
const maintenanceEntities = 12

// FuzzRuleMaintenance drives a rules engine with byte-coded asserts,
// retracts and Syncs over a 12-entity graph. After every Sync the store
// must equal a fresh engine's from-scratch derivation, and the support
// side-tables must be exact: every stored head listed once under each
// distinct body key of its support that grounds no atom binding the
// whole head, each body fact visible, and nothing else listed. At the
// end the graph is put back to its starting facts, every one of whose
// derived facts has a single derivation, so the side-tables must be
// back at their starting sizes: nothing leaks.
//
// Each op is three bytes: kind and predicate, subject, object. Kinds
// are assert (twice as likely), retract of a live fact and Sync; the
// predicates are three base ones and chain, a head asserted into the
// base too. An object byte with its high bit set names e0, so edges
// converge on one entity.
func FuzzRuleMaintenance(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 0, 2, 1, 0, 3, 0, 0})
	f.Add([]byte{4, 1, 2, 8, 2, 4, 0, 6, 128, 0, 7, 128, 3, 0, 0, 2, 6, 0, 3, 0, 0, 10, 5, 0, 3, 0, 0})
	f.Add([]byte{0, 6, 128, 0, 7, 128, 0, 8, 6, 3, 0, 0, 2, 0, 0, 2, 0, 0, 3, 0, 0, 12, 1, 0, 3, 0, 0})
	f.Add([]byte{8, 0, 5, 4, 4, 9, 0, 6, 4, 3, 0, 0, 12, 6, 1, 3, 0, 0, 10, 0, 0, 3, 0, 0})
	rng := rand.New(rand.NewSource(31))
	for range 6 {
		b := make([]byte, 3*(20+rng.Intn(40)))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			return
		}
		g := kg.NewGraphWithShards(2)
		geng := graphengine.New(g)
		ents := make([]kg.EntityID, maintenanceEntities)
		for i := range ents {
			ents[i] = mustEnt(t, g, fmt.Sprintf("e%d", i))
		}
		reportsTo := mustPred(t, g, "reportsTo")
		collaborator := mustPred(t, g, "collaborator")
		spouse := mustPred(t, g, "spouse")
		rs, err := ParseRules(g, maintenanceProgram)
		if err != nil {
			t.Fatal(err)
		}
		chain, _ := g.PredicateByName("chain")
		preds := []kg.PredicateID{reportsTo, collaborator, spouse, chain.ID}

		fact := func(s int, p kg.PredicateID, o int) kg.Triple {
			return kg.Triple{Subject: ents[s], Predicate: p, Object: kg.EntityValue(ents[o])}
		}
		// Every derived fact of the starting graph has one derivation:
		// chain e1→e0, e2→e1, e2→e0; rooted e1, e2; peer e1·e1, e2·e2;
		// fanout e1→e0, e2→e1; link e3→e4.
		start := []kg.Triple{
			fact(1, reportsTo, 0), fact(2, reportsTo, 1),
			fact(3, collaborator, 4), fact(4, spouse, 5),
		}
		live := slices.Clone(start)
		for _, tr := range start {
			if err := g.Assert(tr); err != nil {
				t.Fatal(err)
			}
		}
		e := newTestEngine(t, geng, rs)
		startSizes := checkSideTables(t, e, g)
		checkFromScratch(t, e, geng, rs)

		for i := 0; i+2 < len(ops); i += 3 {
			kind, s, o := ops[i], int(ops[i+1])%maintenanceEntities, int(ops[i+2]%maintenanceEntities)
			if ops[i+2]&0x80 != 0 {
				o = 0
			}
			switch kind % 4 {
			case 0, 1:
				tr := fact(s, preds[int(kind/4)%len(preds)], o)
				added, err := g.AssertNew(tr)
				if err != nil {
					t.Fatal(err)
				}
				if added {
					live = append(live, tr)
				}
			case 2:
				if len(live) == 0 {
					continue
				}
				j := int(ops[i+1]) % len(live)
				if !g.Retract(live[j]) {
					t.Fatalf("op %d: retract of live fact %v failed", i/3, live[j])
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			case 3:
				e.Sync()
				checkSideTables(t, e, g)
				checkFromScratch(t, e, geng, rs)
			}
		}

		// Back to the starting facts.
		for _, tr := range live {
			if !slices.Contains(start, tr) {
				g.Retract(tr)
			}
		}
		for _, tr := range start {
			if _, err := g.AssertNew(tr); err != nil {
				t.Fatal(err)
			}
		}
		e.Sync()
		checkFromScratch(t, e, geng, rs)
		if end := checkSideTables(t, e, g); end != startSizes {
			t.Fatalf("side-tables at the starting facts: %+v, at the start %+v", end, startSizes)
		}
	})
}

// sideTableSizes counts the store's support side-tables.
type sideTableSizes struct {
	supports, bodyKeys, listed int
}

// checkSideTables fails unless the support side-tables match the facts
// exactly (see FuzzRuleMaintenance) and Stats reports the feed caught
// up; it returns the tables' sizes.
func checkSideTables(t *testing.T, e *Engine, g *kg.Graph) sideTableSizes {
	t.Helper()
	st := e.st
	if n := st.facts.Len(); len(st.supports) != n {
		t.Fatalf("%d supports for %d stored facts", len(st.supports), n)
	}
	want := make(map[[2]kg.TripleKey]bool)
	for hk, sup := range st.supports {
		if !st.facts.Has(hk) {
			t.Fatalf("support kept for %v, which is not stored", hk)
		}
		var bindsHead []bool // per body atom: it names every head variable
		if sup.rule >= 0 {
			r := e.rs.rules[sup.rule]
			for _, c := range r.Body {
				vars := []string{c.Subject.Var, c.Object.Var}
				bindsHead = append(bindsHead, (r.Head.Subject.Var == "" || slices.Contains(vars, r.Head.Subject.Var)) &&
					(r.Head.Object.Var == "" || slices.Contains(vars, r.Head.Object.Var)))
			}
		}
		for i, bk := range sup.body {
			if !st.facts.Has(bk) && !g.HasFact(bk.Subject, bk.Predicate, bk.Object.Value()) {
				t.Fatalf("support of %v lists %v, which is neither in the graph nor derived", hk, bk)
			}
			listed := !slices.Contains(sup.body[:i], bk)
			for j := range sup.body {
				listed = listed && !(sup.body[j] == bk && bindsHead[j])
			}
			if listed {
				want[[2]kg.TripleKey{bk, hk}] = true
			}
		}
	}
	sizes := sideTableSizes{supports: len(st.supports), bodyKeys: len(st.dependents)}
	for bk, heads := range st.dependents {
		if len(heads) == 0 {
			t.Fatalf("empty dependents list kept for %v", bk)
		}
		for _, hk := range heads {
			pair := [2]kg.TripleKey{bk, hk}
			if !want[pair] {
				t.Fatalf("%v listed under %v more than once or without a support there", hk, bk)
			}
			delete(want, pair)
			sizes.listed++
		}
	}
	for pair := range want {
		t.Fatalf("%v not listed under its body key %v", pair[1], pair[0])
	}
	if stats, wm := e.Stats(), g.LastSeq(); stats.Cursor != wm || stats.Lag != 0 {
		t.Fatalf("after Sync: Stats cursor %d lag %d, watermark %d", stats.Cursor, stats.Lag, wm)
	}
	return sizes
}

// checkFromScratch fails unless e's rule-derived facts equal those of a
// fresh engine deriving the same program over the same graph.
func checkFromScratch(t *testing.T, e *Engine, geng *graphengine.Engine, rs *RuleSet) {
	t.Helper()
	fresh, err := New(geng, rs, Options{NoMaintainer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	got, want := derivedKeys(e), derivedKeys(fresh)
	for k := range want {
		if !got[k] {
			t.Errorf("missing derived fact %+v", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("ghost derived fact %+v", k)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// FuzzParseRules parses arbitrary text against a fresh graph per input.
// ParseRules must not panic; an accepted program must place every rule
// in exactly one stratum and re-parse from its Source to the same rules.
func FuzzParseRules(f *testing.F) {
	for _, s := range []string{
		"chain(X, Y) :- reportsTo(X, Y).\nchain(X, Z) :- reportsTo(X, Y), chain(Y, Z).",
		"# comment\nflagged(X, \"=\") :- hasOp(X, '='). % trailing",
		"weird(?who, 3.5) :- hasOp(?who, nan), reportsTo(@alice, ?who).",
		"a(X, Y) :- b(X, Y).\nb(X, Y) :- a(X, Y), reportsTo(X, Y).\nc(X, 1e3) :- a(X, -2).",
		"p(X, true) :- reportsTo(X, Y), hasOp(Y, false).",
		"p(X, Y) :- reportsTo(X, \"open.",
		"p(X, Z) :- reportsTo(X, Y).",
		"p(@alice, Y) :- hasOp(_x, Y).",
		"p(3, Y) :- hasOp(X, Y).",
		"ns:p(X, Y) :- reportsTo(X, Y), reportsTo(Y, X).",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		g := kg.NewGraph()
		mustPred(t, g, "reportsTo")
		mustPred(t, g, "hasOp")
		mustEnt(t, g, "alice")
		rs, err := ParseRules(g, text)
		if err != nil {
			return
		}
		placed := make([]int, rs.Len())
		for _, stratum := range rs.Strata() {
			for _, ri := range stratum {
				placed[ri]++
			}
		}
		for ri, n := range placed {
			if n != 1 {
				t.Fatalf("rule %d is in %d strata", ri, n)
			}
		}
		again, err := ParseRules(g, rs.Source())
		if err != nil {
			t.Fatalf("re-parse of an accepted program failed: %v", err)
		}
		a, b := rs.Rules(), again.Rules()
		if !slices.EqualFunc(a, b, sameRule) {
			t.Fatalf("re-parse gave other rules:\n%+v\n%+v", a, b)
		}
	})
}

// sameRule compares rules by predicate and term, constants by identity
// (a NaN constant equals itself).
func sameRule(a, b Rule) bool {
	sameTerm := func(x, y graphengine.Term) bool {
		return x.Var == y.Var && x.Const.MapKey() == y.Const.MapKey()
	}
	sameClause := func(x, y graphengine.Clause) bool {
		return x.Predicate == y.Predicate && sameTerm(x.Subject, y.Subject) && sameTerm(x.Object, y.Object)
	}
	return sameClause(a.Head, b.Head) && slices.EqualFunc(a.Body, b.Body, sameClause)
}
