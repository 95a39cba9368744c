package kg

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// Model-based property test: a Graph under random assert/retract
// sequences must agree with a map-backed reference model on membership,
// counts, and index contents.
func TestGraphMatchesMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		g := NewGraph()
		const nEnts = 8
		const nPreds = 3
		ents := make([]EntityID, nEnts)
		for i := range ents {
			id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
			if err != nil {
				return false
			}
			ents[i] = id
		}
		preds := make([]PredicateID, nPreds)
		for i := range preds {
			id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
			if err != nil {
				return false
			}
			preds[i] = id
		}
		model := make(map[string]Triple)
		for _, op := range ops {
			s := ents[int(op)%nEnts]
			p := preds[int(op>>3)%nPreds]
			o := ents[int(op>>6)%nEnts]
			tr := Triple{Subject: s, Predicate: p, Object: EntityValue(o)}
			if op>>14 == 3 { // 1/4 of ops are retracts
				removed := g.Retract(tr)
				_, inModel := model[tr.SPO()]
				if removed != inModel {
					return false
				}
				delete(model, tr.SPO())
			} else {
				if err := g.Assert(tr); err != nil {
					return false
				}
				model[tr.SPO()] = tr
			}
		}
		if g.NumTriples() != len(model) {
			return false
		}
		// Membership agrees both ways.
		for _, tr := range model {
			if !g.HasFact(tr.Subject, tr.Predicate, tr.Object) {
				return false
			}
		}
		count := 0
		ok := true
		g.TriplesSnapshot(func(tr Triple) bool {
			count++
			if _, in := model[tr.SPO()]; !in {
				ok = false
				return false
			}
			return true
		})
		if !ok || count != len(model) {
			return false
		}
		// Index consistency: every (pred, obj) posting, read in small
		// chunks, is exactly the model's subjects for it, ascending.
		for _, p := range preds {
			for _, o := range ents {
				var want []EntityID
				for _, s := range ents {
					if _, in := model[Triple{Subject: s, Predicate: p, Object: EntityValue(o)}.SPO()]; in {
						want = append(want, s)
					}
				}
				var got []EntityID
				g.SubjectsWithChunked(p, EntityValue(o), NoEntity, 3, func(chunk []EntityID) bool {
					got = append(got, chunk...)
					return true
				})
				if !slices.Equal(got, want) {
					return false
				}
			}
		}
		// Mutation log replay reproduces the graph.
		replay := NewGraph()
		for i := range ents {
			if _, err := replay.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)}); err != nil {
				return false
			}
		}
		for i := range preds {
			if _, err := replay.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)}); err != nil {
				return false
			}
		}
		for _, m := range g.MutationsSince(0) {
			switch m.Op {
			case OpAssert:
				if err := replay.Assert(m.T); err != nil {
					return false
				}
			case OpRetract:
				replay.Retract(m.T)
			}
		}
		return replay.NumTriples() == g.NumTriples()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAssert(b *testing.B) {
	g := NewGraph()
	p, _ := g.AddPredicate(Predicate{Name: "p"})
	const pool = 4096
	ids := make([]EntityID, pool)
	for i := range ids {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Assert(Triple{Subject: ids[i%pool], Predicate: p, Object: IntValue(int64(i))})
	}
}

func BenchmarkFactsLookup(b *testing.B) {
	g := NewGraph()
	p, _ := g.AddPredicate(Predicate{Name: "p"})
	const pool = 1024
	ids := make([]EntityID, pool)
	for i := range ids {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i < pool*8; i++ {
		if err := g.Assert(Triple{Subject: ids[i%pool], Predicate: p, Object: IntValue(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Facts(ids[i%pool], p)
	}
}
