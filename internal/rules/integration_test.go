package rules

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

// TestDerivedQueryTransparency: with the rules engine attached, derived
// predicates answer through the normal conjunctive surface, join with
// base predicates, and keep the deterministic stream order cursors rely
// on.
func TestDerivedQueryTransparency(t *testing.T) {
	const n = 6
	g, geng, rs, ents, _, chain := chainWorld(t, n)
	e := newTestEngine(t, geng, rs)
	geng.AttachDerived(e.Derived())
	dept := mustPred(t, g, "dept")
	mustAssert(t, g, ents[n-1], dept, kg.StringValue("infra"))

	// Join a derived predicate with a base one: everyone transitively
	// under the infra head.
	clauses := []graphengine.Clause{
		{Subject: graphengine.V("X"), Predicate: chain, Object: graphengine.V("Boss")},
		{Subject: graphengine.V("Boss"), Predicate: dept, Object: graphengine.Term{Const: kg.StringValue("infra")}},
	}
	var rows []graphengine.Binding
	for b, err := range geng.StreamConjunctive(clauses, graphengine.QueryOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, b)
	}
	if len(rows) != n-1 {
		t.Fatalf("join rows = %d, want %d", len(rows), n-1)
	}

	// Determinism: two full enumerations stream identically.
	var again []graphengine.Binding
	for b, err := range geng.StreamConjunctive(clauses, graphengine.QueryOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		again = append(again, b)
	}
	if len(again) != len(rows) {
		t.Fatalf("re-enumeration size %d != %d", len(again), len(rows))
	}
	for i := range rows {
		if fmt.Sprint(graphengine.BindingKey(rows[i])) != fmt.Sprint(graphengine.BindingKey(again[i])) {
			t.Fatalf("row %d order unstable", i)
		}
	}
}

// TestHostileCursorWalkOverDerived pages through a derived predicate one
// row at a time, then resumes from a cursor whose row has since been
// un-derived — the stream must stay duplicate-free and terminate, and
// the vanished-cursor resume must not crash or re-deliver.
func TestHostileCursorWalkOverDerived(t *testing.T) {
	const n = 7
	g, geng, rs, ents, rt, chain := chainWorld(t, n)
	e := newTestEngine(t, geng, rs)
	geng.AttachDerived(e.Derived())
	clauses := []graphengine.Clause{
		{Subject: graphengine.V("X"), Predicate: chain, Object: graphengine.V("Y")},
	}

	// Full enumeration as ground truth.
	var full []string
	for b, err := range geng.StreamConjunctive(clauses, graphengine.QueryOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, fmt.Sprint(graphengine.BindingKey(b)))
	}
	if want := n * (n - 1) / 2; len(full) != want {
		t.Fatalf("full walk = %d rows, want %d", len(full), want)
	}

	// Cursor walk, limit 1 per page.
	var walked []string
	var cursor []kg.ValueKey
	for {
		got := 0
		for b, err := range geng.StreamConjunctive(clauses, graphengine.QueryOptions{Limit: 1, Cursor: cursor}) {
			if err != nil {
				t.Fatal(err)
			}
			walked = append(walked, fmt.Sprint(graphengine.BindingKey(b)))
			cursor = graphengine.BindingKey(b)
			got++
		}
		if got == 0 {
			break
		}
	}
	if len(walked) != len(full) {
		t.Fatalf("cursor walk = %d rows, full = %d", len(walked), len(full))
	}
	for i := range full {
		if walked[i] != full[i] {
			t.Fatalf("cursor walk diverged at row %d: %s != %s", i, walked[i], full[i])
		}
	}
	seen := make(map[string]bool, len(walked))
	for _, k := range walked {
		if seen[k] {
			t.Fatalf("cursor walk re-delivered %s", k)
		}
		seen[k] = true
	}

	// Hostile resume: take a cursor mid-stream, then cut the chain so
	// the cursor row (and much of the stream) is un-derived.
	var mid []kg.ValueKey
	count := 0
	for b, err := range geng.StreamConjunctive(clauses, graphengine.QueryOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		count++
		if count == len(full)/2 {
			mid = graphengine.BindingKey(b)
			break
		}
	}
	if !g.Retract(kg.Triple{Subject: ents[0], Predicate: rt, Object: kg.EntityValue(ents[1])}) {
		t.Fatal("retract failed")
	}
	e.Sync()
	resumed := 0
	for _, err := range geng.StreamConjunctive(clauses, graphengine.QueryOptions{Cursor: mid}) {
		if err != nil {
			t.Fatal(err)
		}
		resumed++
	}
	// The remainder must be bounded by the new answer-set size (a
	// vanished cursor may legally yield an empty or shifted remainder —
	// never duplicates beyond the live set, never a hang).
	if live := (n - 1) * (n - 2) / 2; resumed > live {
		t.Fatalf("hostile resume yielded %d rows, live set only %d", resumed, live)
	}
}

// TestSubscriptionOverDerivedPredicate: a standing query over a rule
// head updates live — adds when new facts derive, retracts when their
// support is retracted — through the OnDelta -> ApplyDerivedDeltas
// bridge.
func TestSubscriptionOverDerivedPredicate(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	a := mustEnt(t, g, "a")
	b := mustEnt(t, g, "b")
	c := mustEnt(t, g, "c")
	rt := mustPred(t, g, "reportsTo")
	mustAssert(t, g, a, rt, kg.EntityValue(b))
	rs, err := ParseRules(g, `
		chain(X, Y) :- reportsTo(X, Y).
		chain(X, Z) :- reportsTo(X, Y), chain(Y, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(geng, rs, Options{NoMaintainer: true, OnDelta: geng.ApplyDerivedDeltas})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	geng.AttachDerived(e.Derived())
	chain, _ := g.PredicateByName("chain")

	sub, err := geng.Subscribe([]graphengine.Clause{
		{Subject: graphengine.Term{Const: kg.EntityValue(a)}, Predicate: chain.ID, Object: graphengine.V("Y")},
	}, graphengine.SubscribeOptions{Coalesce: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	recv := func() graphengine.SubscriptionEvent {
		t.Helper()
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed: %v", sub.Err())
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for subscription event")
		}
		panic("unreachable")
	}

	ev := recv()
	if !ev.Reset || len(ev.Adds) != 1 {
		t.Fatalf("snapshot event = %+v, want Reset with chain(a,b)", ev)
	}

	// Extend the chain: chain(a,c) should arrive as an add.
	mustAssert(t, g, b, rt, kg.EntityValue(c))
	e.Sync()
	deadline := time.Now().Add(5 * time.Second)
	got := make(map[string]bool)
	for len(got) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no add event for chain(a,c)")
		}
		ev = recv()
		for _, add := range ev.Adds {
			got[fmt.Sprint(graphengine.BindingKey(add))] = true
		}
	}

	// Cut a -> b: both chain(a,b) and chain(a,c) retract.
	if !g.Retract(kg.Triple{Subject: a, Predicate: rt, Object: kg.EntityValue(b)}) {
		t.Fatal("retract failed")
	}
	e.Sync()
	rets := 0
	for rets < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("retract events incomplete: %d of 2", rets)
		}
		ev = recv()
		rets += len(ev.Retracts)
	}
}

// TestIncrementalEqualsFromScratchUnderChurn is the acceptance property
// test: randomized concurrent assert/retract churn against a maintained
// engine, with concurrent readers, must land — at quiescence — on
// exactly the fixpoint a from-scratch derivation (the naive reference
// evaluator) computes over the final graph. Run under -race this also
// exercises the store/view locking.
func TestIncrementalEqualsFromScratchUnderChurn(t *testing.T) {
	const (
		entities = 24
		writers  = 4
		opsEach  = 150
	)
	g := kg.NewGraph()
	geng := graphengine.New(g)
	ents := make([]kg.EntityID, entities)
	for i := range ents {
		ents[i] = mustEnt(t, g, fmt.Sprintf("n%d", i))
	}
	rt := mustPred(t, g, "reportsTo")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < entities; i++ {
		mustAssert(t, g, ents[rng.Intn(entities)], rt, kg.EntityValue(ents[rng.Intn(entities)]))
	}
	rs, err := ParseRules(g, `
		chain(X, Y) :- reportsTo(X, Y).
		chain(X, Z) :- reportsTo(X, Y), chain(Y, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(geng, rs, Options{OnDelta: geng.ApplyDerivedDeltas})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	geng.AttachDerived(e.Derived())
	chain, _ := g.PredicateByName("chain")

	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	// Concurrent readers over the derived predicate, racing the
	// maintainer's writes to the fact set on each of its access paths:
	// the scan, a fact list, a posting.
	shapes := [][]graphengine.Clause{
		{{Subject: graphengine.V("X"), Predicate: chain.ID, Object: graphengine.V("Y")}},
		{{Subject: graphengine.CE(ents[0]), Predicate: chain.ID, Object: graphengine.V("Y")}},
		{{Subject: graphengine.V("X"), Predicate: chain.ID, Object: graphengine.CE(ents[1])}},
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopRead:
					return
				default:
				}
				for _, err := range geng.StreamConjunctive(shapes[i%len(shapes)], graphengine.QueryOptions{Limit: 50}) {
					if err != nil {
						return
					}
				}
			}
		}()
	}
	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(seed int64) {
			defer writeWG.Done()
			wr := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				tr := kg.Triple{
					Subject:   ents[wr.Intn(entities)],
					Predicate: rt,
					Object:    kg.EntityValue(ents[wr.Intn(entities)]),
				}
				if wr.Intn(3) == 0 {
					g.Retract(tr)
				} else {
					_ = g.Assert(tr)
				}
			}
		}(int64(100 + w))
	}
	writeWG.Wait()
	close(stopRead)
	wg.Wait()

	e.Sync()
	requireFixpoint(t, e, g)
	if s := e.Stats(); s.Lag != 0 {
		t.Fatalf("lag = %d after Sync on a quiescent graph", s.Lag)
	}
}

// TestPlanCacheRevalidatesAcrossDerivation: a plan cached while a derived
// predicate is empty puts that predicate's scan first. Once the rules
// derive past the staleness rule (more than 64 facts and more than 2x
// the build-time count) the next solve of the shape must rebuild the
// plan — one invalidation, counted as a miss — and lead with the
// selective base clause. Nothing on the write path tells the cache:
// revalidation reads the counters of the graph-plus-derived surface.
func TestPlanCacheRevalidatesAcrossDerivation(t *testing.T) {
	g := kg.NewGraph()
	geng := graphengine.New(g)
	link, tag := mustPred(t, g, "link"), mustPred(t, g, "tag")
	rs, err := ParseRules(g, `near(X, Y) :- link(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, geng, rs)
	geng.AttachDerived(e.Derived())
	near := mustPred(t, g, "near")
	ents := make([]kg.EntityID, 101)
	for i := range ents {
		ents[i] = mustEnt(t, g, fmt.Sprintf("n%d", i))
	}
	for _, s := range ents[:3] {
		mustAssert(t, g, s, tag, kg.StringValue("hot"))
	}
	clauses := []graphengine.Clause{
		{Subject: graphengine.V("X"), Predicate: near, Object: graphengine.V("Y")},
		{Subject: graphengine.V("X"), Predicate: tag, Object: graphengine.Term{Const: kg.StringValue("hot")}},
	}
	first, err := geng.PlanConjunctive(clauses)
	if err != nil {
		t.Fatal(err)
	}
	if in := first.Steps()[0].Input; in != 0 {
		t.Fatalf("with near empty the plan starts at clause %d, want its scan (clause 0)", in)
	}

	for i := 0; i+1 < len(ents); i++ {
		mustAssert(t, g, ents[i], link, kg.EntityValue(ents[i+1]))
	}
	e.Sync()
	if n := e.Derived().Len(); n != 100 {
		t.Fatalf("rules derived %d near facts, want 100", n)
	}
	before := geng.PlanCacheStats()
	second, err := geng.PlanConjunctive(clauses)
	if err != nil {
		t.Fatal(err)
	}
	after := geng.PlanCacheStats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits || after.Invalidations != 1 {
		t.Fatalf("plan cache %+v -> %+v, want one more miss, no hit, 1 invalidation", before, after)
	}
	if in := second.Steps()[0].Input; in != 1 {
		t.Fatalf("after 100 derivations the plan starts at clause %d, want the selective tag clause (1)", in)
	}
}
