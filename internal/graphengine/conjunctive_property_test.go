package graphengine

import (
	"fmt"
	"testing"
	"testing/quick"

	"saga/internal/kg"
)

// Property: the selectivity-ordered join returns exactly the bindings a
// naive brute-force evaluator finds, on random small graphs and random
// two-clause queries.
func TestConjunctiveMatchesNaive(t *testing.T) {
	f := func(edges []uint16, q1, q2 uint8) bool {
		g := kg.NewGraph()
		const nEnts = 6
		ents := make([]kg.EntityID, nEnts)
		for i := range ents {
			id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
			if err != nil {
				return false
			}
			ents[i] = id
		}
		preds := make([]kg.PredicateID, 2)
		for i := range preds {
			id, err := g.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d", i)})
			if err != nil {
				return false
			}
			preds[i] = id
		}
		for _, e := range edges {
			s := ents[int(e)%nEnts]
			p := preds[int(e>>4)%2]
			o := ents[int(e>>8)%nEnts]
			if err := g.Assert(kg.Triple{Subject: s, Predicate: p, Object: kg.EntityValue(o)}); err != nil {
				return false
			}
		}
		eng := New(g)
		// Query: (?x, p_{q1}, ?y) ∧ (?y, p_{q2}, ?z)
		clauses := []Clause{
			{Subject: V("x"), Predicate: preds[int(q1)%2], Object: V("y")},
			{Subject: V("y"), Predicate: preds[int(q2)%2], Object: V("z")},
		}
		got, err := eng.QueryConjunctive(clauses)
		if err != nil {
			return false
		}
		gotSet := make(map[string]bool, len(got))
		for _, b := range got {
			gotSet[b["x"].Key()+"|"+b["y"].Key()+"|"+b["z"].Key()] = true
		}
		// Naive evaluation.
		wantSet := make(map[string]bool)
		all := g.AllTriples()
		for _, t1 := range all {
			if t1.Predicate != preds[int(q1)%2] || !t1.Object.IsEntity() {
				continue
			}
			for _, t2 := range all {
				if t2.Predicate != preds[int(q2)%2] || !t2.Object.IsEntity() {
					continue
				}
				if t2.Subject != t1.Object.Entity {
					continue
				}
				wantSet[kg.EntityValue(t1.Subject).Key()+"|"+t1.Object.Key()+"|"+t2.Object.Key()] = true
			}
		}
		if len(gotSet) != len(wantSet) {
			return false
		}
		for k := range wantSet {
			if !gotSet[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConjunctiveJoin(b *testing.B) {
	g := kg.NewGraph()
	member, _ := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	award, _ := g.AddPredicate(kg.Predicate{Name: "award"})
	team, _ := g.AddEntity(kg.Entity{Key: "team"})
	prize, _ := g.AddEntity(kg.Entity{Key: "prize"})
	for i := 0; i < 500; i++ {
		p, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("p%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Assert(kg.Triple{Subject: p, Predicate: member, Object: kg.EntityValue(team)}); err != nil {
			b.Fatal(err)
		}
		if i%3 == 0 {
			if err := g.Assert(kg.Triple{Subject: p, Predicate: award, Object: kg.EntityValue(prize)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	eng := New(g)
	clauses := []Clause{
		{Subject: V("p"), Predicate: member, Object: CE(team)},
		{Subject: V("p"), Predicate: award, Object: CE(prize)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryConjunctive(clauses); err != nil {
			b.Fatal(err)
		}
	}
}
