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
	f := newBareFixture(t)
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
	return f
}

// newBareFixture builds the fixture's ontology, entities and predicates,
// with the same IDs on every call, and no facts.
func newBareFixture(t *testing.T) *fixture {
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

	f.e = New(f.g)
	return f
}

// mutate applies one batch of one to four random asserts and retracts.
// Each literal predicate has only four possible facts, and libraryID takes
// entity objects as well as literal ones, so predicate frequencies cross
// every threshold in both directions.
func (f *fixture) mutate(t *testing.T, rng *rand.Rand) {
	t.Helper()
	ents := []kg.EntityID{f.lebron, f.curry, f.kobe, f.bball, f.tvactor, f.mvp}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		tr := kg.Triple{Subject: ents[rng.Intn(len(ents))]}
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
			if rng.Intn(2) == 0 {
				tr.Object = kg.EntityValue(ents[rng.Intn(2)])
			}
		}
		if rng.Intn(2) == 0 {
			f.g.Retract(tr)
		} else if err := f.g.Assert(tr); err != nil {
			t.Fatal(err)
		}
	}
}

// viewKeys is the view def keeps of e, as a set.
func viewKeys(e *Engine, def ViewDef) map[kg.TripleKey]bool {
	keys := make(map[kg.TripleKey]bool)
	for _, tr := range e.Materialize(def) {
		keys[tr.IdentityKey()] = true
	}
	return keys
}

func TestViewDropLiterals(t *testing.T) {
	f := newFixture(t)
	v := f.e.Materialize(ViewDef{})
	if len(v) != 5 {
		t.Fatalf("view len = %d, want 5 entity facts", len(v))
	}
	for _, tr := range v {
		if !tr.Object.IsEntity() {
			t.Fatalf("literal fact leaked into view: %v", tr)
		}
	}
}

func TestViewMinPredicateFreq(t *testing.T) {
	f := newFixture(t)
	v := f.e.Materialize(ViewDef{MinPredicateFreq: 3})
	// award(3) survives; occupation(2), height(1) and libid(1) are dropped.
	if len(v) != 3 {
		t.Fatalf("view len = %d, want 3", len(v))
	}
	for _, tr := range v {
		if tr.Predicate != f.award {
			t.Fatalf("rare predicate leaked: %v", tr)
		}
	}
}

// TestViewVocabulary: the view's vocabulary — what the trainer indexes —
// is every entity its facts mention and only the entity-valued predicates.
func TestViewVocabulary(t *testing.T) {
	f := newFixture(t)
	ents := make(map[kg.EntityID]bool)
	preds := make(map[kg.PredicateID]bool)
	for _, tr := range f.e.Materialize(ViewDef{}) {
		ents[tr.Subject], ents[tr.Object.Entity] = true, true
		preds[tr.Predicate] = true
	}
	if len(ents) != 6 {
		t.Fatalf("view mentions %d entities, want 6", len(ents))
	}
	if len(preds) != 2 || !preds[f.occ] || !preds[f.award] {
		t.Fatalf("view predicates = %v, want occupation and award", preds)
	}
}

// TestScanStreamsWhatMaterializeKeeps: Scan hands over each fact
// Materialize returns once, and no other, at every threshold.
func TestScanStreamsWhatMaterializeKeeps(t *testing.T) {
	f := newFixture(t)
	for _, minFreq := range []int{0, 1, 2, 3, 4} {
		def := ViewDef{MinPredicateFreq: minFreq}
		want := viewKeys(f.e, def)
		streamed := 0
		f.e.Scan(def, func(tr kg.Triple) {
			streamed++
			if !want[tr.IdentityKey()] {
				t.Fatalf("min %d: Scan streamed %v, which Materialize does not keep", minFreq, tr)
			}
		})
		if n := len(f.e.Materialize(def)); streamed != n || len(want) != n {
			t.Fatalf("min %d: Scan streamed %d facts, Materialize kept %d (%d distinct)", minFreq, streamed, n, len(want))
		}
	}
}

// TestViewRefreshMatchesRematerialize: after any run of asserts and
// retracts, the view read again from the live graph keeps exactly what it
// keeps of a graph built from scratch with the same facts — retracted
// facts and the frequencies they once raised leave nothing behind.
func TestViewRefreshMatchesRematerialize(t *testing.T) {
	for _, minFreq := range []int{0, 2, 3} {
		f := newFixture(t)
		rng := rand.New(rand.NewSource(int64(11 + minFreq)))
		def := ViewDef{MinPredicateFreq: minFreq}
		for batch := 0; batch < 30; batch++ {
			f.mutate(t, rng)
			fresh := newBareFixture(t)
			for _, tr := range f.g.AllTriples() {
				if err := fresh.g.Assert(tr); err != nil {
					t.Fatal(err)
				}
			}
			got, want := viewKeys(f.e, def), viewKeys(fresh.e, def)
			if len(got) != len(want) {
				t.Fatalf("min %d, batch %d: live view has %d facts, rebuilt %d", minFreq, batch, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("min %d, batch %d: live view misses %v", minFreq, batch, k)
				}
			}
		}
	}
}

// TestScanMatchesReference: after any run of asserts and retracts, Scan
// keeps exactly what a brute-force filter over AllTriples keeps — the
// entity-valued facts whose predicate occurs at least MinPredicateFreq
// times among all the graph's facts, literal ones counted. mutate's
// frequencies cross every threshold in both directions, so counting only
// the facts that pass would show.
func TestScanMatchesReference(t *testing.T) {
	for _, minFreq := range []int{0, 1, 2, 3, 5} {
		f := newFixture(t)
		rng := rand.New(rand.NewSource(int64(7 + minFreq)))
		for batch := 0; batch < 60; batch++ {
			f.mutate(t, rng)
			want := scanReference(f.g, minFreq)
			got := make(map[kg.TripleKey]bool)
			f.e.Scan(ViewDef{MinPredicateFreq: minFreq}, func(tr kg.Triple) {
				if got[tr.IdentityKey()] {
					t.Fatalf("min %d, batch %d: Scan handed over %v twice", minFreq, batch, tr)
				}
				got[tr.IdentityKey()] = true
			})
			if len(got) != len(want) {
				t.Fatalf("min %d, batch %d: Scan kept %d facts, the reference %d", minFreq, batch, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("min %d, batch %d: Scan missed %v", minFreq, batch, k)
				}
			}
		}
	}
}

// scanReference is the training view by brute force: every fact counted,
// then the entity-valued ones of frequent-enough predicates kept.
func scanReference(g *kg.Graph, minFreq int) map[kg.TripleKey]bool {
	all := g.AllTriples()
	freq := make(map[kg.PredicateID]int)
	for _, tr := range all {
		freq[tr.Predicate]++
	}
	keep := make(map[kg.TripleKey]bool)
	for _, tr := range all {
		if tr.Object.IsEntity() && freq[tr.Predicate] >= minFreq {
			keep[tr.IdentityKey()] = true
		}
	}
	return keep
}
