package rules

import (
	"cmp"
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
		g := kg.NewGraph()
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
	if n := st.facts.NumTriples(); len(st.supports) != n {
		t.Fatalf("%d supports for %d stored facts", len(st.supports), n)
	}
	want := make(map[[2]kg.TripleKey]bool)
	for hk, sup := range st.supports {
		if !st.facts.HasFact(hk.Subject, hk.Predicate, hk.Object.Value()) {
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
			if !st.facts.HasFact(bk.Subject, bk.Predicate, bk.Object.Value()) && !g.HasFact(bk.Subject, bk.Predicate, bk.Object.Value()) {
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

// khopEntities is the size of FuzzDeriveKHop's starting graph.
const khopEntities = 8

// FuzzDeriveKHop checks DeriveKHop against a BFS over the graph's facts
// read naively (naiveAdjacency). The committed corpus is in
// testdata/fuzz/FuzzDeriveKHop.
//
// Each op is three bytes: kind, then two operands a and b. By kind mod
// 6: assert the edge (a, p, b) or (a, q, b) — parallel edges under two
// predicates, and self-loops when a and b name the same entity; retract
// the live fact a names; assert the literal fact (a, lit, b); register
// an entity, which stays isolated unless a later op gives it a fact; and
// derive within k = 1 + kind/6 mod 4 hops of a, b, a again and the
// newest entity. After the ops every entity is a source at k = 2.
func FuzzDeriveKHop(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			return
		}
		g := kg.NewGraph()
		geng := graphengine.New(g)
		ents := make([]kg.EntityID, khopEntities)
		for i := range ents {
			ents[i] = mustEnt(t, g, fmt.Sprintf("e%d", i))
		}
		preds := []kg.PredicateID{mustPred(t, g, "p"), mustPred(t, g, "q")}
		lit := mustPred(t, g, "lit")
		near := mustPred(t, g, "near")
		rs, err := NewRuleSet(nil)
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, geng, rs)

		check := func(op int, srcs []kg.EntityID, k int) {
			t.Helper()
			rep, err := e.DeriveKHop(near, srcs, k)
			if err != nil {
				t.Fatal(err)
			}
			if wm := g.LastSeq(); rep.Watermark != wm {
				t.Fatalf("op %d: watermark %d, graph at %d", op, rep.Watermark, wm)
			}
			adj := naiveAdjacency(g)
			var want []kg.Triple
			for _, src := range slices.Compact(slices.Sorted(slices.Values(srcs))) {
				for w := range reach(adj, src, k) {
					if w != src {
						want = append(want, kg.Triple{Subject: src, Predicate: near, Object: kg.EntityValue(w)})
					}
				}
			}
			var got []kg.Triple
			e.st.each(near, func(t kg.Triple) { got = append(got, t) })
			byPair := func(a, b kg.Triple) int {
				if c := cmp.Compare(a.Subject, b.Subject); c != 0 {
					return c
				}
				return cmp.Compare(a.Object.Entity, b.Object.Entity)
			}
			slices.SortFunc(want, byPair)
			slices.SortFunc(got, byPair)
			if rep.Facts != len(want) || !slices.Equal(got, want) {
				t.Fatalf("op %d: khop(%v, k=%d) reports %d facts %v, the reference BFS gives %v", op, srcs, k, rep.Facts, got, want)
			}
		}

		ent := func(x int) kg.EntityID { return ents[x%len(ents)] }
		var live []kg.Triple
		for i := 0; i+2 < len(ops); i += 3 {
			kind, a, b := ops[i], int(ops[i+1]), int(ops[i+2])
			var tr kg.Triple
			switch kind % 6 {
			case 0, 1:
				tr = kg.Triple{Subject: ent(a), Predicate: preds[kind%6], Object: kg.EntityValue(ent(b))}
			case 2:
				if len(live) > 0 {
					j := a % len(live)
					if !g.Retract(live[j]) {
						t.Fatalf("op %d: retract of live fact %v failed", i/3, live[j])
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				continue
			case 3:
				tr = kg.Triple{Subject: ent(a), Predicate: lit, Object: kg.IntValue(int64(b))}
			case 4:
				ents = append(ents, mustEnt(t, g, fmt.Sprintf("e%d", len(ents))))
				continue
			case 5:
				check(i/3, []kg.EntityID{ent(a), ent(b), ent(a), ents[len(ents)-1]}, 1+int(kind/6)%4)
				continue
			}
			added, err := g.AssertNew(tr)
			if err != nil {
				t.Fatal(err)
			}
			if added {
				live = append(live, tr)
			}
		}
		check(len(ops)/3, ents, 2)
	})
}

// componentEntities is the size of FuzzDeriveComponents' starting graph.
const componentEntities = 8

// FuzzDeriveComponents checks DeriveComponents against components found
// by BFS over the graph's facts read naively (naiveAdjacency): each
// entity with a neighbour, in ascending ID order, labels what it reaches
// and is not yet labelled with its own ID. The committed corpus is in
// testdata/fuzz/FuzzDeriveComponents.
//
// Each op is three bytes: kind, then two operands a and b. By kind mod
// 6: assert the edge (a, p, b) or (a, q, b) — parallel edges under two
// predicates, and self-loops when a and b name the same entity; retract
// the live fact a names; assert the literal fact (a, lit, b); register
// an entity, which stays isolated unless a later op gives it a fact; and
// derive. After the ops the components are derived once more.
func FuzzDeriveComponents(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			return
		}
		g := kg.NewGraph()
		geng := graphengine.New(g)
		ents := make([]kg.EntityID, componentEntities)
		for i := range ents {
			ents[i] = mustEnt(t, g, fmt.Sprintf("e%d", i))
		}
		preds := []kg.PredicateID{mustPred(t, g, "p"), mustPred(t, g, "q")}
		lit := mustPred(t, g, "lit")
		comp := mustPred(t, g, "component")
		rs, err := NewRuleSet(nil)
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, geng, rs)

		check := func(op int) {
			t.Helper()
			rep, err := e.DeriveComponents(comp)
			if err != nil {
				t.Fatal(err)
			}
			if wm := g.LastSeq(); rep.Watermark != wm {
				t.Fatalf("op %d: watermark %d, graph at %d", op, rep.Watermark, wm)
			}
			adj := naiveAdjacency(g)
			label := make(map[kg.EntityID]kg.EntityID)
			var want []kg.Triple
			for id := kg.EntityID(1); int(id) <= g.NumEntities(); id++ {
				if len(adj[id]) == 0 {
					continue
				}
				if _, done := label[id]; !done {
					for w := range reach(adj, id, len(adj)) {
						label[w] = id
					}
				}
				want = append(want, kg.Triple{Subject: id, Predicate: comp, Object: kg.EntityValue(label[id])})
			}
			var got []kg.Triple
			e.st.each(comp, func(t kg.Triple) { got = append(got, t) })
			slices.SortFunc(got, func(a, b kg.Triple) int { return cmp.Compare(a.Subject, b.Subject) })
			if rep.Facts != len(want) || !slices.Equal(got, want) {
				t.Fatalf("op %d: components report %d facts %v, the reference BFS gives %v", op, rep.Facts, got, want)
			}
		}

		ent := func(x int) kg.EntityID { return ents[x%len(ents)] }
		var live []kg.Triple
		for i := 0; i+2 < len(ops); i += 3 {
			kind, a, b := ops[i], int(ops[i+1]), int(ops[i+2])
			var tr kg.Triple
			switch kind % 6 {
			case 0, 1:
				tr = kg.Triple{Subject: ent(a), Predicate: preds[kind%6], Object: kg.EntityValue(ent(b))}
			case 2:
				if len(live) > 0 {
					j := a % len(live)
					if !g.Retract(live[j]) {
						t.Fatalf("op %d: retract of live fact %v failed", i/3, live[j])
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				continue
			case 3:
				tr = kg.Triple{Subject: ent(a), Predicate: lit, Object: kg.IntValue(int64(b))}
			case 4:
				ents = append(ents, mustEnt(t, g, fmt.Sprintf("e%d", len(ents))))
				continue
			case 5:
				check(i / 3)
				continue
			}
			added, err := g.AssertNew(tr)
			if err != nil {
				t.Fatal(err)
			}
			if added {
				live = append(live, tr)
			}
		}
		check(len(ops) / 3)
	})
}

// naiveAdjacency is the undirected entity-to-entity graph of g's facts,
// read with AllTriples: each entity's neighbours through an entity-valued
// fact in either direction, self-loops left out, repeats kept.
func naiveAdjacency(g *kg.Graph) map[kg.EntityID][]kg.EntityID {
	adj := make(map[kg.EntityID][]kg.EntityID)
	for _, t := range g.AllTriples() {
		if t.Object.IsEntity() && t.Object.Entity != t.Subject {
			adj[t.Subject] = append(adj[t.Subject], t.Object.Entity)
			adj[t.Object.Entity] = append(adj[t.Object.Entity], t.Subject)
		}
	}
	return adj
}

// reach returns the entities within k hops of src in adj, src included.
func reach(adj map[kg.EntityID][]kg.EntityID, src kg.EntityID, k int) map[kg.EntityID]bool {
	seen := map[kg.EntityID]bool{src: true}
	frontier := []kg.EntityID{src}
	for depth := 0; depth < k && len(frontier) > 0; depth++ {
		var next []kg.EntityID
		for _, u := range frontier {
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return seen
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
		for _, stratum := range rs.strata {
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
		a, b := rs.rules, again.rules
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
