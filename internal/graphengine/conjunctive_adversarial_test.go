package graphengine

import (
	"math"
	"slices"
	"sort"
	"testing"

	"saga/internal/kg"
)

// naiveConjunctive is a brute-force reference evaluator: nested loops
// over the full triple list per clause, Equal-join semantics, and dedup
// on the bindings' ValueKey tuples (never on rendered strings). The
// planner must return exactly this set.
func naiveConjunctive(t *testing.T, g *kg.Graph, clauses []Clause) [][]kg.ValueKey {
	t.Helper()
	var vars []string
	for _, c := range clauses {
		for _, term := range [2]Term{c.Subject, c.Object} {
			if term.Var != "" && !slices.Contains(vars, term.Var) {
				vars = append(vars, term.Var)
			}
		}
	}
	sort.Strings(vars)
	all := g.AllTriples()
	bound := Binding{}
	var rows [][]kg.ValueKey
	var rec func(i int)
	rec = func(i int) {
		if i == len(clauses) {
			row := make([]kg.ValueKey, len(vars))
			for j, name := range vars {
				row[j] = bound[name].MapKey()
			}
			rows = append(rows, row)
			return
		}
		c := clauses[i]
		for _, tr := range all {
			if tr.Predicate != c.Predicate {
				continue
			}
			matches := func(term Term, val kg.Value) bool {
				if term.Var == "" {
					return term.Const.Equal(val)
				}
				if v, has := bound[term.Var]; has {
					return v.Equal(val)
				}
				return true
			}
			if !matches(c.Subject, kg.EntityValue(tr.Subject)) || !matches(c.Object, tr.Object) {
				continue
			}
			var added []string
			bind := func(term Term, val kg.Value) {
				if term.Var != "" {
					if _, has := bound[term.Var]; !has {
						bound[term.Var] = val
						added = append(added, term.Var)
					}
				}
			}
			bind(c.Subject, kg.EntityValue(tr.Subject))
			bind(c.Object, tr.Object)
			rec(i + 1)
			for _, v := range added {
				delete(bound, v)
			}
		}
	}
	rec(0)
	sort.Slice(rows, func(a, b int) bool { return compareKeyRows(rows[a], rows[b]) < 0 })
	dedup := rows[:0]
	for i, r := range rows {
		if i > 0 && compareKeyRows(rows[i-1], r) == 0 {
			continue
		}
		dedup = append(dedup, r)
	}
	return dedup
}

// checkAgainstNaive pins QueryConjunctive's binding set (as key tuples)
// against the naive reference.
func checkAgainstNaive(t *testing.T, g *kg.Graph, clauses []Clause, wantCount int) {
	t.Helper()
	e := New(g)
	got, err := e.QueryConjunctive(clauses)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveConjunctive(t, g, clauses)
	if wantCount >= 0 && len(want) != wantCount {
		t.Fatalf("naive reference found %d bindings, expected %d — test fixture broken", len(want), wantCount)
	}
	if len(got) != len(want) {
		t.Fatalf("QueryConjunctive = %d bindings, naive reference = %d\ngot: %v", len(got), len(want), got)
	}
	var vars []string
	for _, c := range clauses {
		for _, term := range [2]Term{c.Subject, c.Object} {
			if term.Var != "" && !slices.Contains(vars, term.Var) {
				vars = append(vars, term.Var)
			}
		}
	}
	sort.Strings(vars)
	for i, b := range got {
		row := make([]kg.ValueKey, len(vars))
		for j, name := range vars {
			row[j] = b[name].MapKey()
		}
		if compareKeyRows(row, want[i]) != 0 {
			t.Fatalf("binding %d = %v, naive reference disagrees", i, b)
		}
	}

	// The streaming surface must agree with the naive reference too: same
	// dedup (the adversarial literals must not collapse distinct rows, nor
	// duplicate any), same count, order-independent. Identity compares on
	// the collision-free encoded key tuples.
	naiveSet := make(map[string]bool, len(want))
	for _, row := range want {
		naiveSet[EncodeCursor(row)] = true
	}
	streamed := 0
	streamSeen := make(map[string]bool, len(want))
	for b, err := range e.StreamConjunctive(clauses, QueryOptions{}) {
		if err != nil {
			t.Fatalf("StreamConjunctive: %v", err)
		}
		tok := EncodeCursor(BindingKey(b))
		if streamSeen[tok] {
			t.Fatalf("StreamConjunctive yielded a duplicate binding: %v", b)
		}
		streamSeen[tok] = true
		if !naiveSet[tok] {
			t.Fatalf("StreamConjunctive yielded a binding the naive reference lacks: %v", b)
		}
		streamed++
	}
	if streamed != len(want) {
		t.Fatalf("StreamConjunctive = %d bindings, naive reference = %d", streamed, len(want))
	}
}

// Distinct bindings whose string renders collide: with the old
// concatenated "var=key;" encoding, (x="a;y=s:b", y="") and
// (x="a", y="b;y=s:") both rendered as "x=s:a;y=s:b;y=s:;" and the dedup
// map collapsed them — the cross product of 2×2 object literals must
// yield 4 bindings, not 3.
func TestConjunctiveAdversarialSeparatorLiterals(t *testing.T) {
	g := kg.NewGraph()
	s, _ := g.AddEntity(kg.Entity{Key: "s"})
	p, _ := g.AddPredicate(kg.Predicate{Name: "p"})
	q, _ := g.AddPredicate(kg.Predicate{Name: "q"})
	for _, v := range []string{"a;y=s:b", "a"} {
		if err := g.Assert(kg.Triple{Subject: s, Predicate: p, Object: kg.StringValue(v)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []string{"", "b;y=s:"} {
		if err := g.Assert(kg.Triple{Subject: s, Predicate: q, Object: kg.StringValue(v)}); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstNaive(t, g, []Clause{
		{Subject: CE(s), Predicate: p, Object: V("x")},
		{Subject: CE(s), Predicate: q, Object: V("y")},
	}, 4)
}

// Literals containing '=' and empty strings in a joined two-subject
// query: every distinct combination must survive dedup.
func TestConjunctiveAdversarialEqualsAndEmpty(t *testing.T) {
	g := kg.NewGraph()
	a, _ := g.AddEntity(kg.Entity{Key: "a"})
	b, _ := g.AddEntity(kg.Entity{Key: "b"})
	p, _ := g.AddPredicate(kg.Predicate{Name: "p"})
	q, _ := g.AddPredicate(kg.Predicate{Name: "q"})
	for _, tr := range []kg.Triple{
		{Subject: a, Predicate: p, Object: kg.StringValue("x=1")},
		{Subject: a, Predicate: p, Object: kg.StringValue("x")},
		{Subject: b, Predicate: p, Object: kg.StringValue("")},
		{Subject: a, Predicate: q, Object: kg.StringValue("=1;")},
		{Subject: b, Predicate: q, Object: kg.StringValue("")},
	} {
		if err := g.Assert(tr); err != nil {
			t.Fatal(err)
		}
	}
	// (?s, p, ?x) ∧ (?s, q, ?y): a contributes 2×1, b contributes 1×1.
	checkAgainstNaive(t, g, []Clause{
		{Subject: V("s"), Predicate: p, Object: V("x")},
		{Subject: V("s"), Predicate: q, Object: V("y")},
	}, 3)
}

// Two NaN facts with different payload bits are distinct SPO identities;
// the old render collapsed them because strconv prints every NaN as
// "NaN". Both must appear as bindings.
func TestConjunctiveAdversarialNaNPayloads(t *testing.T) {
	g := kg.NewGraph()
	s, _ := g.AddEntity(kg.Entity{Key: "s"})
	p, _ := g.AddPredicate(kg.Predicate{Name: "p"})
	for _, bits := range []uint64{0x7ff8000000000001, 0x7ff8000000000002} {
		if err := g.Assert(kg.Triple{Subject: s, Predicate: p, Object: kg.FloatValue(math.Float64frombits(bits))}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(g)
	res, err := e.QueryConjunctive([]Clause{{Subject: CE(s), Predicate: p, Object: V("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("NaN-payload bindings = %d, want 2 (distinct identities)", len(res))
	}
	// The naive reference can't pin this query: Equal-join semantics make
	// constant-subject matching insensitive to NaN payloads only in the
	// object position, which is exactly what both evaluators implement —
	// so compare them anyway.
	checkAgainstNaive(t, g, []Clause{{Subject: CE(s), Predicate: p, Object: V("x")}}, 2)
}

// A variable bound to a NaN literal never Equal-joins into a second
// clause (NaN != NaN), even when both facts carry identical bit
// patterns: the planner's fully-bound shortcut must preserve the join's
// Equal semantics rather than the index's identity semantics.
func TestConjunctiveNaNVarJoinPrunes(t *testing.T) {
	g := kg.NewGraph()
	s1, _ := g.AddEntity(kg.Entity{Key: "s1"})
	s2, _ := g.AddEntity(kg.Entity{Key: "s2"})
	p, _ := g.AddPredicate(kg.Predicate{Name: "p"})
	q, _ := g.AddPredicate(kg.Predicate{Name: "q"})
	nan := kg.FloatValue(math.Float64frombits(0x7ff8000000000001))
	for _, tr := range []kg.Triple{
		{Subject: s1, Predicate: p, Object: nan},
		{Subject: s2, Predicate: q, Object: nan},
	} {
		if err := g.Assert(tr); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstNaive(t, g, []Clause{
		{Subject: CE(s1), Predicate: p, Object: V("x")},
		{Subject: CE(s2), Predicate: q, Object: V("x")},
	}, 0)
}

// planCost must never allocate: cost probes are counter lookups on the
// predicate-major index, and the planner prices every remaining clause at
// every join depth.
func TestEstimateZeroAllocs(t *testing.T) {
	f := newFixture(t)
	bound := map[string]bool{"who": true}
	clauses := []Clause{
		{Subject: V("x"), Predicate: f.award, Object: CE(f.mvp)},                        // object bound
		{Subject: CE(f.lebron), Predicate: f.occ, Object: V("o")},                       // subject bound
		{Subject: V("a"), Predicate: f.award, Object: V("b")},                           // unbound
		{Subject: CE(f.lebron), Predicate: f.height, Object: C(kg.IntValue(203))},       // fully bound
		{Subject: V("who"), Predicate: f.libid, Object: C(kg.StringValue("L1"))},        // var subject, bound
		{Subject: V("free"), Predicate: f.height, Object: C(kg.FloatValue(math.NaN()))}, // literal object probe
	}
	var sink int
	for i, c := range clauses {
		c := c
		if allocs := testing.AllocsPerRun(200, func() { sink += planCost(f.g, c, bound) }); allocs != 0 {
			t.Errorf("clause %d: planCost allocates %.1f per op, want 0", i, allocs)
		}
	}
	_ = sink
}

// BenchmarkConjunctiveEstimate reports the planner's cost-probe price
// directly (the acceptance surface for "planCost shows 0 allocs/op").
func BenchmarkConjunctiveEstimate(b *testing.B) {
	g := kg.NewGraph()
	member, _ := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	team, _ := g.AddEntity(kg.Entity{Key: "team"})
	for i := 0; i < 200; i++ {
		p, err := g.AddEntity(kg.Entity{Key: "p" + string(rune('a'+i%26)) + string(rune('0'+i/26))})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Assert(kg.Triple{Subject: p, Predicate: member, Object: kg.EntityValue(team)}); err != nil {
			b.Fatal(err)
		}
	}
	c := Clause{Subject: V("p"), Predicate: member, Object: CE(team)}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += planCost(g, c, nil)
	}
	_ = sink
}
