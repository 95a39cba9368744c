package graphengine

import (
	"fmt"
	"testing"

	"saga/internal/kg"
)

// probeCountingGraph wraps a graph to count the planner's estimate
// probes — the counter lookups buildPlan pays per shape. A plan-cache
// hit must make none of them (revalidation reads only
// PredicateFrequency).
type probeCountingGraph struct {
	*kg.Graph
	factCount int
	subjCount int
	predFreq  int
}

func (p *probeCountingGraph) FactCount(s kg.EntityID, pr kg.PredicateID) int {
	p.factCount++
	return p.Graph.FactCount(s, pr)
}

func (p *probeCountingGraph) SubjectsWithCount(pr kg.PredicateID, o kg.Value) int {
	p.subjCount++
	return p.Graph.SubjectsWithCount(pr, o)
}

func (p *probeCountingGraph) PredicateFrequency(pr kg.PredicateID) int {
	p.predFreq++
	return p.Graph.PredicateFrequency(pr)
}

func (p *probeCountingGraph) estimateProbes() int { return p.factCount + p.subjCount }

// A cached shape skips planning entirely: the second lookup of the same
// shape makes zero estimate probes (FactCount / SubjectsWithCount) and
// at most one PredicateFrequency read per distinct predicate for
// revalidation.
func TestPlanCacheHitSkipsPlanning(t *testing.T) {
	g, clauses := streamFixture(t, 32)
	cg := &probeCountingGraph{Graph: g}
	pc := newPlanCache(8)
	shape := shapeKey(clauses)

	first := pc.plan(cg, clauses, shape)
	if cg.estimateProbes() == 0 {
		t.Fatal("cold build made no estimate probes — fixture no longer exercises planning")
	}

	cg.factCount, cg.subjCount, cg.predFreq = 0, 0, 0
	second := pc.plan(cg, clauses, shape)
	if second != first {
		t.Fatal("cache returned a different plan for an unchanged shape")
	}
	if n := cg.estimateProbes(); n != 0 {
		t.Fatalf("cache hit made %d estimate probes, want 0", n)
	}
	if cg.predFreq > 2 {
		t.Fatalf("revalidation made %d PredicateFrequency reads for 2 distinct predicates", cg.predFreq)
	}

	st := pc.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 invalidations", st)
	}
}

// Shapes that differ only in constant values share a plan; shapes that
// differ in predicates, variable names, or constant placement do not.
func TestShapeKey(t *testing.T) {
	g, clauses := streamFixture(t, 4)
	_ = g
	member := clauses[0].Predicate
	award := clauses[1].Predicate
	team := clauses[0].Object.Const.Entity
	prize := clauses[1].Object.Const.Entity

	base := shapeKey(clauses)
	sameShapeOtherConst := shapeKey([]Clause{
		{Subject: V("p"), Predicate: member, Object: CE(prize)},
		{Subject: V("p"), Predicate: award, Object: CE(team)},
	})
	if base != sameShapeOtherConst {
		t.Fatal("constant values leaked into the shape key")
	}
	renamedVar := shapeKey([]Clause{
		{Subject: V("q"), Predicate: member, Object: CE(team)},
		{Subject: V("q"), Predicate: award, Object: CE(prize)},
	})
	if base == renamedVar {
		t.Fatal("variable names must be part of the shape key (they order the key tuple)")
	}
	swappedPred := shapeKey([]Clause{
		{Subject: V("p"), Predicate: award, Object: CE(team)},
		{Subject: V("p"), Predicate: member, Object: CE(prize)},
	})
	if base == swappedPred {
		t.Fatal("predicates must be part of the shape key")
	}
	literalObj := shapeKey([]Clause{
		{Subject: V("p"), Predicate: member, Object: C(kg.IntValue(7))},
		{Subject: V("p"), Predicate: award, Object: CE(prize)},
	})
	if base == literalObj {
		t.Fatal("constant kind (entity vs literal) must be part of the shape key")
	}
}

// A cached plan whose predicate counters drift past the staleness rule
// (more than 64 triples AND more than 2x) is invalidated and rebuilt;
// small drift keeps the plan.
func TestPlanCacheInvalidation(t *testing.T) {
	g, clauses := streamFixture(t, 16)
	cg := &probeCountingGraph{Graph: g}
	pc := newPlanCache(8)
	shape := shapeKey(clauses)

	first := pc.plan(cg, clauses, shape)

	// Small drift: 8 more memberOf triples — under the absolute floor.
	member := clauses[0].Predicate
	team := clauses[0].Object.Const
	addMembers := func(n int, tag string) {
		batch := make([]kg.Triple, 0, n)
		for i := 0; i < n; i++ {
			id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("extra-%s-%d", tag, i)})
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, kg.Triple{Subject: id, Predicate: member, Object: team})
		}
		if _, err := g.AssertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	addMembers(8, "small")
	if got := pc.plan(cg, clauses, shape); got != first {
		t.Fatal("small counter drift invalidated the plan")
	}

	// Large drift: push memberOf well past 2x its build-time count.
	addMembers(256, "large")
	second := pc.plan(cg, clauses, shape)
	if second == first {
		t.Fatal("large counter drift did not invalidate the plan")
	}
	st := pc.stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (cold build + invalidation rebuild)", st.Misses)
	}
}

// The cache is bounded: at capacity, inserting a new shape evicts the
// least recently used one, which then misses again.
func TestPlanCacheLRUEviction(t *testing.T) {
	g, clauses := streamFixture(t, 4)
	member := clauses[0].Predicate
	pc := newPlanCache(2)

	mkClauses := func(varName string) []Clause {
		return []Clause{{Subject: V(varName), Predicate: member, Object: clauses[0].Object}}
	}
	shapes := make([][]Clause, 3)
	for i := range shapes {
		shapes[i] = mkClauses(fmt.Sprintf("v%d", i))
	}
	plans := make([]*Plan, 3)
	for i, cl := range shapes {
		plans[i] = pc.plan(g, cl, shapeKey(cl))
	}
	// Capacity 2: shape 0 was evicted when shape 2 landed.
	st := pc.stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and size 2", st)
	}
	if got := pc.plan(g, shapes[1], shapeKey(shapes[1])); got != plans[1] {
		t.Fatal("resident shape was rebuilt")
	}
	if got := pc.plan(g, shapes[0], shapeKey(shapes[0])); got == plans[0] {
		t.Fatal("evicted shape returned the old plan pointer without a rebuild")
	}
}

// The planner fixes access paths statically from boundness: the
// bound-object clause runs first through the posting index, then the
// second clause (its subject now bound) probes via has_fact... here both
// clauses have constant objects, so whichever runs second is fully
// resolved.
func TestPlanAccessPaths(t *testing.T) {
	g, clauses := streamFixture(t, 16)
	p := buildPlan(g, clauses, "")
	steps := p.steps
	if len(steps) != 2 {
		t.Fatalf("plan has %d steps, want 2", len(steps))
	}
	if steps[0].Path != PathPosting {
		t.Fatalf("first step path = %v, want posting", steps[0].Path)
	}
	if steps[1].Path != PathHasFact {
		t.Fatalf("second step path = %v, want has_fact", steps[1].Path)
	}
	desc := p.Describe()
	if desc[0].Path != "posting" || desc[1].Path != "has_fact" {
		t.Fatalf("describe paths = %v", desc)
	}
	if desc[0].Clause == desc[1].Clause {
		t.Fatal("describe reuses a clause index")
	}
	if desc[0].Estimate <= 0 {
		t.Fatalf("first step estimate = %d, want positive", desc[0].Estimate)
	}
}

// The Engine's streaming entry point goes through the plan cache:
// repeated queries of one shape hit.
func TestEngineStreamConjunctiveUsesPlanCache(t *testing.T) {
	g, clauses := streamFixture(t, 8)
	e := New(g)
	for i := 0; i < 3; i++ {
		rows := collectStream(t, e.StreamConjunctive(clauses, QueryOptions{}))
		if len(rows) != 8 {
			t.Fatalf("run %d: %d rows, want 8", i, len(rows))
		}
	}
	st := e.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss and 2 hits across 3 identical queries", st)
	}
	if _, err := e.PlanConjunctive(clauses); err != nil {
		t.Fatal(err)
	}
	if st = e.PlanCacheStats(); st.Hits != 3 {
		t.Fatalf("PlanConjunctive did not share the stream cache: %+v", st)
	}
}

// PlanConjunctive validates like the stream entry points.
func TestPlanConjunctiveValidates(t *testing.T) {
	g, clauses := streamFixture(t, 2)
	e := New(g)
	bad := []Clause{{Subject: C(kg.IntValue(3)), Predicate: clauses[0].Predicate, Object: V("o")}}
	if _, err := e.PlanConjunctive(bad); err == nil {
		t.Fatal("literal constant subject accepted")
	}
	if _, err := e.PlanConjunctive([]Clause{{Subject: V("s"), Object: V("o")}}); err == nil {
		t.Fatal("missing predicate accepted")
	}
}
