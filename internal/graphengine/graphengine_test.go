package graphengine

import (
	"fmt"
	"math/rand"
	"testing"

	"saga/internal/kg"
)

// fixture builds a small typed graph:
//
//	lebron -occupation-> {bballPlayer, tvActor}
//	lebron -award-> mvp; curry -award-> mvp; kobe -award-> mvp
//	lebron -height-> 203 (literal)
//	lebron -libraryID-> "L1" (rare predicate, freq 1)
type fixture struct {
	g                         *kg.Graph
	e                         *Engine
	lebron, curry, kobe       kg.EntityID
	bball, tvactor, mvp       kg.EntityID
	occ, award, height, libid kg.PredicateID
	personType, athleteType   kg.TypeID
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{g: kg.NewGraph()}
	o := f.g.Ontology()
	thing, _ := o.AddType("Thing", kg.NoType)
	f.personType, _ = o.AddType("Person", thing)
	f.athleteType, _ = o.AddType("Athlete", f.personType)

	add := func(key, name string, types ...kg.TypeID) kg.EntityID {
		id, err := f.g.AddEntity(kg.Entity{Key: key, Name: name, Types: types})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	f.lebron = add("Q1", "LeBron James", f.athleteType)
	f.curry = add("Q2", "Stephen Curry", f.athleteType)
	f.kobe = add("Q3", "Kobe Bryant", f.athleteType)
	f.bball = add("Q4", "Basketball Player")
	f.tvactor = add("Q5", "Television Actor")
	f.mvp = add("Q6", "NBA MVP Award")

	pred := func(name string) kg.PredicateID {
		id, err := f.g.AddPredicate(kg.Predicate{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	f.occ = pred("occupation")
	f.award = pred("award")
	f.height = pred("height")
	f.libid = pred("libraryID")

	assert := func(s kg.EntityID, p kg.PredicateID, o kg.Value) {
		if err := f.g.Assert(kg.Triple{Subject: s, Predicate: p, Object: o, Prov: kg.Provenance{Confidence: 0.9}}); err != nil {
			t.Fatal(err)
		}
	}
	assert(f.lebron, f.occ, kg.EntityValue(f.bball))
	assert(f.lebron, f.occ, kg.EntityValue(f.tvactor))
	assert(f.lebron, f.award, kg.EntityValue(f.mvp))
	assert(f.curry, f.award, kg.EntityValue(f.mvp))
	assert(f.kobe, f.award, kg.EntityValue(f.mvp))
	assert(f.lebron, f.height, kg.IntValue(203))
	assert(f.lebron, f.libid, kg.StringValue("L1"))

	f.e = New(f.g)
	return f
}

func TestViewDropLiterals(t *testing.T) {
	f := newFixture(t)
	v := f.e.Materialize(ViewDef{DropLiteralFacts: true})
	if v.Len() != 5 {
		t.Fatalf("view len = %d, want 5 entity facts", v.Len())
	}
	for _, tr := range v.Triples() {
		if tr.Object.IsLiteral() {
			t.Fatalf("literal fact leaked into view: %v", tr)
		}
	}
}

func TestViewMinPredicateFreq(t *testing.T) {
	f := newFixture(t)
	v := f.e.Materialize(ViewDef{MinPredicateFreq: 2})
	// occ(2), award(3) survive; height(1), libid(1) dropped.
	if v.Len() != 5 {
		t.Fatalf("view len = %d, want 5", v.Len())
	}
	for _, tr := range v.Triples() {
		if tr.Predicate == f.height || tr.Predicate == f.libid {
			t.Fatalf("rare predicate leaked: %v", tr)
		}
	}
}

func TestViewIncludeExcludePredicates(t *testing.T) {
	f := newFixture(t)
	v := f.e.Materialize(ViewDef{IncludePredicates: map[kg.PredicateID]bool{f.award: true}})
	if v.Len() != 3 {
		t.Fatalf("include view len = %d", v.Len())
	}
	v2 := f.e.Materialize(ViewDef{ExcludePredicates: map[kg.PredicateID]bool{f.award: true}})
	if v2.Len() != 4 {
		t.Fatalf("exclude view len = %d", v2.Len())
	}
}

func TestViewSubjectType(t *testing.T) {
	f := newFixture(t)
	// Athlete subjects only — all facts have athlete subjects in fixture.
	v := f.e.Materialize(ViewDef{SubjectType: f.athleteType})
	if v.Len() != 7 {
		t.Fatalf("athlete view len = %d", v.Len())
	}
	// Person supertype matches via inheritance too.
	v2 := f.e.Materialize(ViewDef{SubjectType: f.personType})
	if v2.Len() != 7 {
		t.Fatalf("person view len = %d", v2.Len())
	}
}

func TestViewMinConfidence(t *testing.T) {
	f := newFixture(t)
	low := kg.Triple{Subject: f.curry, Predicate: f.occ, Object: kg.EntityValue(f.bball), Prov: kg.Provenance{Confidence: 0.1}}
	if err := f.g.Assert(low); err != nil {
		t.Fatal(err)
	}
	v := f.e.Materialize(ViewDef{MinConfidence: 0.5})
	if v.Contains(low) {
		t.Fatal("low-confidence fact leaked into view")
	}
	if v.Len() != 7 {
		t.Fatalf("view len = %d, want 7", v.Len())
	}
}

func TestViewIncrementalRefresh(t *testing.T) {
	f := newFixture(t)
	v := f.e.Materialize(ViewDef{DropLiteralFacts: true})
	base := v.Len()

	newFact := kg.Triple{Subject: f.curry, Predicate: f.occ, Object: kg.EntityValue(f.bball)}
	if err := f.g.Assert(newFact); err != nil {
		t.Fatal(err)
	}
	litFact := kg.Triple{Subject: f.curry, Predicate: f.height, Object: kg.IntValue(188)}
	if err := f.g.Assert(litFact); err != nil {
		t.Fatal(err)
	}
	applied := v.Refresh()
	if applied != 1 {
		t.Fatalf("Refresh applied %d, want 1 (literal filtered)", applied)
	}
	if v.Len() != base+1 || !v.Contains(newFact) {
		t.Fatalf("view missing new fact; len=%d", v.Len())
	}

	f.g.Retract(newFact)
	if v.Refresh() != 1 {
		t.Fatal("retraction not applied")
	}
	if v.Contains(newFact) || v.Len() != base {
		t.Fatal("view still contains retracted fact")
	}
	// Refresh with no new mutations is a no-op.
	if v.Refresh() != 0 {
		t.Fatal("idle refresh applied mutations")
	}
}

// TestViewRefreshMatchesRematerialize: after any run of asserts and
// retracts, a refreshed view holds exactly what a fresh Materialize of
// the same definition holds — for every definition Scan is checked
// against, MinPredicateFreq included. Each literal predicate has only
// four possible facts, so its frequency crosses the thresholds in both
// directions.
func TestViewRefreshMatchesRematerialize(t *testing.T) {
	for i := range viewDefsUnderTest(newFixture(t)) {
		f := newFixture(t)
		def := viewDefsUnderTest(f)[i]
		v := f.e.Materialize(def)
		rng := rand.New(rand.NewSource(int64(7 + i)))
		ents := []kg.EntityID{f.lebron, f.curry, f.kobe, f.bball, f.tvactor, f.mvp}
		randomFact := func() kg.Triple {
			tr := kg.Triple{Subject: ents[rng.Intn(len(ents))], Prov: kg.Provenance{Confidence: 0.1}}
			if rng.Intn(2) == 0 {
				tr.Prov.Confidence = 0.9
			}
			switch rng.Intn(4) {
			case 0:
				tr.Predicate, tr.Object = f.occ, kg.EntityValue(ents[rng.Intn(len(ents))])
			case 1:
				tr.Predicate, tr.Object = f.award, kg.EntityValue(ents[rng.Intn(len(ents))])
			case 2:
				tr.Subject = ents[rng.Intn(2)]
				tr.Predicate, tr.Object = f.height, kg.IntValue(int64(200+rng.Intn(2)))
			default:
				tr.Subject = ents[rng.Intn(2)]
				tr.Predicate, tr.Object = f.libid, kg.StringValue(fmt.Sprintf("L%d", rng.Intn(2)))
			}
			return tr
		}
		for batch := 0; batch < 60; batch++ {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				tr := randomFact()
				if rng.Intn(2) == 0 {
					f.g.Retract(tr)
				} else if err := f.g.Assert(tr); err != nil {
					t.Fatal(err)
				}
			}
			v.Refresh()
			fresh := f.e.Materialize(def)
			if v.Len() != fresh.Len() {
				t.Fatalf("def %d, batch %d: refreshed view holds %d triples, a fresh one %d", i, batch, v.Len(), fresh.Len())
			}
			for _, tr := range fresh.Triples() {
				if !v.Contains(tr) {
					t.Fatalf("def %d, batch %d: refreshed view misses %v", i, batch, tr)
				}
			}
		}
	}
}

func TestViewVocabulary(t *testing.T) {
	f := newFixture(t)
	v := f.e.Materialize(ViewDef{DropLiteralFacts: true})
	ents := v.EntityIDs()
	if len(ents) != 6 {
		t.Fatalf("EntityIDs = %v, want 6", ents)
	}
	for i := 1; i < len(ents); i++ {
		if ents[i] <= ents[i-1] {
			t.Fatal("EntityIDs not sorted/unique")
		}
	}
	preds := v.PredicateIDs()
	if len(preds) != 2 {
		t.Fatalf("PredicateIDs = %v, want occ+award", preds)
	}
}

func TestNeighbors(t *testing.T) {
	f := newFixture(t)
	nbrs := f.e.Neighbors(f.mvp)
	if len(nbrs) != 3 {
		t.Fatalf("Neighbors(mvp) = %v", nbrs)
	}
	nbrs = f.e.Neighbors(f.lebron)
	if len(nbrs) != 3 { // bball, tvactor, mvp
		t.Fatalf("Neighbors(lebron) = %v", nbrs)
	}
}

func TestBFS(t *testing.T) {
	f := newFixture(t)
	dist := f.e.Snapshot().BFS(f.lebron, 2)
	if dist[f.lebron] != 0 {
		t.Fatal("source distance != 0")
	}
	if dist[f.mvp] != 1 {
		t.Fatalf("dist(mvp) = %d", dist[f.mvp])
	}
	if dist[f.curry] != 2 { // via mvp
		t.Fatalf("dist(curry) = %d", dist[f.curry])
	}
	dist1 := f.e.Snapshot().BFS(f.lebron, 1)
	if _, ok := dist1[f.curry]; ok {
		t.Fatal("depth-1 BFS reached 2-hop node")
	}
}

func TestPPRRelated(t *testing.T) {
	f := newFixture(t)
	top := f.e.TopRelatedByPPR(f.lebron, 10)
	if len(top) == 0 {
		t.Fatal("no PPR results")
	}
	// curry and kobe (share the MVP award) must appear.
	found := map[kg.EntityID]bool{}
	for _, se := range top {
		found[se.ID] = true
		if se.ID == f.lebron {
			t.Fatal("source leaked into related list")
		}
	}
	if !found[f.curry] || !found[f.kobe] {
		t.Fatalf("PPR missed co-award athletes: %v", top)
	}
	// Scores are sorted descending.
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("PPR scores not sorted")
		}
	}
}

func TestPPRMassConservation(t *testing.T) {
	f := newFixture(t)
	ppr := f.e.PersonalizedPageRank(f.lebron, 0.15, 25)
	var total float64
	for _, m := range ppr {
		if m < 0 {
			t.Fatal("negative PPR mass")
		}
		total += m
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("PPR mass = %v, want ~1", total)
	}
}

func TestRandomWalksAndCoOccurrence(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(1))
	walks := f.e.Snapshot().RandomWalks(f.lebron, 50, 4, rng)
	if len(walks) != 50 {
		t.Fatalf("walks = %d", len(walks))
	}
	for _, w := range walks {
		if w[0] != f.lebron {
			t.Fatal("walk does not start at source")
		}
		if len(w) > 5 {
			t.Fatalf("walk too long: %v", w)
		}
	}
	co := CoOccurrence(walks)
	if co[f.mvp] == 0 {
		t.Fatal("1-hop neighbor never co-occurred in 50 walks")
	}
	if co[f.lebron] != 0 {
		t.Fatal("source counted in its own co-occurrence")
	}
}

func TestRandomWalkIsolatedNode(t *testing.T) {
	g := kg.NewGraph()
	id, err := g.AddEntity(kg.Entity{Key: "lonely", Name: "Lonely"})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	walks := e.Snapshot().RandomWalks(id, 3, 5, rand.New(rand.NewSource(2)))
	for _, w := range walks {
		if len(w) != 1 {
			t.Fatalf("isolated node walk = %v", w)
		}
	}
	if got := e.TopRelatedByPPR(id, 5); len(got) != 0 {
		t.Fatalf("isolated node PPR related = %v", got)
	}
}

func TestLargeGraphBFSDepths(t *testing.T) {
	// Chain graph: e0 - e1 - ... - e49.
	g := kg.NewGraph()
	p, _ := g.AddPredicate(kg.Predicate{Name: "next"})
	ids := make([]kg.EntityID, 50)
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("c%d", i), Name: "n"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := g.Assert(kg.Triple{Subject: ids[i], Predicate: p, Object: kg.EntityValue(ids[i+1])}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(g)
	dist := e.Snapshot().BFS(ids[0], 49)
	for i, id := range ids {
		if dist[id] != i {
			t.Fatalf("dist(e%d) = %d, want %d", i, dist[id], i)
		}
	}
}

// viewDefsUnderTest holds a definition for every kind of clause, alone
// and combined: those applied inside the scan's cut and those that wait
// for its end.
func viewDefsUnderTest(f *fixture) []ViewDef {
	return []ViewDef{
		{},
		{DropLiteralFacts: true},
		{DropEntityFacts: true},
		{MinPredicateFreq: 2},
		{DropLiteralFacts: true, MinPredicateFreq: 3},
		{IncludePredicates: map[kg.PredicateID]bool{f.award: true}},
		{ExcludePredicates: map[kg.PredicateID]bool{f.award: true}},
		{SubjectType: f.athleteType},
		{SubjectType: f.personType, MinPredicateFreq: 2},
		{MinConfidence: 0.5},
	}
}

// TestScanStreamsWhatMaterializeKeeps: Scan is the pass views are built
// from, so for every kind of clause it hands over exactly the view's
// triples and the view's watermark.
func TestScanStreamsWhatMaterializeKeeps(t *testing.T) {
	f := newFixture(t)
	for i, def := range viewDefsUnderTest(f) {
		want := make(map[kg.TripleKey]bool)
		for _, tr := range f.e.Materialize(def).Triples() {
			want[tr.IdentityKey()] = true
		}
		got := make(map[kg.TripleKey]bool)
		seq := f.e.Scan(def, func(tr kg.Triple) { got[tr.IdentityKey()] = true })
		if seq != f.g.LastSeq() {
			t.Fatalf("def %d: watermark %d, graph is at %d", i, seq, f.g.LastSeq())
		}
		if len(got) != len(want) {
			t.Fatalf("def %d: Scan kept %d triples, the view %d", i, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("def %d: Scan missed %v", i, k)
			}
		}
	}
}
