package graphengine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"saga/internal/kg"
)

// streamFixture builds a graph where one team has many members, all of
// whom also won the award — a query with a wide answer set, the shape a
// limit must terminate early.
func streamFixture(t testing.TB, nMembers int) (g *kg.Graph, clauses []Clause) {
	t.Helper()
	g = kg.NewGraphWithShards(8)
	add := func(key string) kg.EntityID {
		id, err := g.AddEntity(kg.Entity{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	member, _ := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	award, _ := g.AddPredicate(kg.Predicate{Name: "award"})
	team := add("team")
	prize := add("prize")
	batch := make([]kg.Triple, 0, nMembers*2)
	for i := 0; i < nMembers; i++ {
		p := add(fmt.Sprintf("p%d", i))
		batch = append(batch,
			kg.Triple{Subject: p, Predicate: member, Object: kg.EntityValue(team)},
			kg.Triple{Subject: p, Predicate: award, Object: kg.EntityValue(prize)},
		)
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	clauses = []Clause{
		{Subject: V("p"), Predicate: member, Object: CE(team)},
		{Subject: V("p"), Predicate: award, Object: CE(prize)},
	}
	return g, clauses
}

// collectStream drains a stream into bindings, failing the test on any
// yielded error.
func collectStream(t *testing.T, seq func(func(Binding, error) bool)) []Binding {
	t.Helper()
	var out []Binding
	for b, err := range seq {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, b)
	}
	return out
}

// bindingToken returns the collision-free identity token of a binding —
// the encoded cursor of its key tuple.
func bindingToken(b Binding) string { return EncodeCursor(BindingKey(b)) }

// streamTokens drains a stream into binding tokens, preserving order and
// failing on any error.
func streamTokens(t *testing.T, seq func(func(Binding, error) bool)) []string {
	t.Helper()
	var out []string
	for b, err := range seq {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, bindingToken(b))
	}
	return out
}

// Property: on random graphs and random two-clause queries, the stream-
// collected result set is exactly QueryConjunctive's (same dedup, same
// count), the stream itself never yields a duplicate, a limited stream is
// a prefix of the unlimited one, and cursor pagination reproduces the
// unlimited stream with no dup or missing row.
func TestStreamConjunctiveMatchesQueryConjunctive(t *testing.T) {
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
		clauses := []Clause{
			{Subject: V("x"), Predicate: preds[int(q1)%2], Object: V("y")},
			{Subject: V("y"), Predicate: preds[int(q2)%2], Object: V("z")},
		}

		var streamed []Binding
		seen := make(map[string]bool)
		for b, err := range eng.StreamConjunctive(clauses, QueryOptions{}) {
			if err != nil {
				return false
			}
			tok := bindingToken(b)
			if seen[tok] {
				return false // in-stream duplicate
			}
			seen[tok] = true
			streamed = append(streamed, b)
		}

		sorted, err := eng.QueryConjunctive(clauses)
		if err != nil {
			return false
		}
		if len(sorted) != len(streamed) {
			return false
		}
		for _, b := range sorted {
			if !seen[bindingToken(b)] {
				return false
			}
		}

		// Limit push-down yields a prefix of the unlimited stream.
		for _, limit := range []int{1, 2, len(streamed)} {
			if limit > len(streamed) || limit == 0 {
				continue
			}
			page := 0
			for b, err := range eng.StreamConjunctive(clauses, QueryOptions{Limit: limit}) {
				if err != nil {
					return false
				}
				if bindingToken(b) != bindingToken(streamed[page]) {
					return false
				}
				page++
			}
			if page != limit {
				return false
			}
		}

		// Cursor pagination walks the exact unlimited sequence.
		var walked []Binding
		var cursor []kg.ValueKey
		for {
			n := 0
			var last Binding
			for b, err := range eng.StreamConjunctive(clauses, QueryOptions{Limit: 2, Cursor: cursor}) {
				if err != nil {
					return false
				}
				walked = append(walked, b)
				last = b
				n++
			}
			if n < 2 {
				break
			}
			cursor = BindingKey(last)
		}
		if len(walked) != len(streamed) {
			return false
		}
		for i := range walked {
			if bindingToken(walked[i]) != bindingToken(streamed[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// countingGraph wraps a graph to count how often the solver actually
// probes it: posting-list entries enumerated and membership checks made.
type countingGraph struct {
	*kg.Graph
	hasFact  int
	postings int
}

func (c *countingGraph) HasFact(s kg.EntityID, p kg.PredicateID, o kg.Value) bool {
	c.hasFact++
	return c.Graph.HasFact(s, p, o)
}

func (c *countingGraph) SubjectsWithChunked(p kg.PredicateID, o kg.Value, after kg.EntityID, chunkSize int, fn func([]kg.EntityID) bool) {
	c.Graph.SubjectsWithChunked(p, o, after, chunkSize, func(chunk []kg.EntityID) bool {
		c.postings += len(chunk)
		return fn(chunk)
	})
}

// A limited solve must stop probing the graph once the page is full: with
// every team member holding the award, each yielded row costs one
// membership check, so limit rows cost limit checks — not one per member
// as the full solve pays. A resumed page is held to the same standard: the
// cursor is a seek, so it pays for its own rows plus the cursor row, not
// for the rows of the pages before it.
func TestStreamConjunctiveLimitStopsProbing(t *testing.T) {
	const nMembers = 512
	g, clauses := streamFixture(t, nMembers)

	full := &countingGraph{Graph: g}
	rows := 0
	for _, err := range streamConjunctive(full, clauses, QueryOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if rows != nMembers {
		t.Fatalf("full solve = %d rows, want %d", rows, nMembers)
	}
	if full.hasFact < nMembers {
		t.Fatalf("full solve made %d membership probes, expected >= %d — fixture no longer exercises the probe path", full.hasFact, nMembers)
	}

	const limit = 5
	limited := &countingGraph{Graph: g}
	rows = 0
	for _, err := range streamConjunctive(limited, clauses, QueryOptions{Limit: limit}) {
		if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if rows != limit {
		t.Fatalf("limited solve = %d rows, want %d", rows, limit)
	}
	if limited.hasFact > limit {
		t.Fatalf("limited solve made %d membership probes after limit %d — limit is not pushed into the solver", limited.hasFact, limit)
	}

	// Resume after row 500 of the 512: the members ahead of the cursor are
	// never probed.
	const after = 500
	var cursor []kg.ValueKey
	rows = 0
	for b, err := range streamConjunctive(g, clauses, QueryOptions{Limit: after}) {
		if err != nil {
			t.Fatal(err)
		}
		rows++
		cursor = BindingKey(b)
	}
	if rows != after {
		t.Fatalf("prefix solve = %d rows, want %d", rows, after)
	}
	resumed := &countingGraph{Graph: g}
	rows = 0
	for _, err := range streamConjunctive(resumed, clauses, QueryOptions{Limit: limit, Cursor: cursor}) {
		if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if rows != limit {
		t.Fatalf("resumed solve = %d rows, want %d", rows, limit)
	}
	// The cursor row plus the page.
	if resumed.hasFact > limit+1 {
		t.Fatalf("page resumed after row %d made %d membership probes, want <= %d — the cursor replays instead of seeking", after, resumed.hasFact, limit+1)
	}
	// And the posting read itself started at the cursor: the 500 members
	// behind it were never copied out, let alone compared.
	if resumed.postings > nMembers-after+1 {
		t.Fatalf("page resumed after row %d read %d posting entries, want <= %d — the read starts at the head, not the cursor", after, resumed.postings, nMembers-after+1)
	}
}

// Cursor pagination at the engine level: pages are disjoint, in stream
// order, and their union is exactly the full answer set.
func TestStreamConjunctiveCursorPagination(t *testing.T) {
	const nMembers = 23
	g, clauses := streamFixture(t, nMembers)
	e := New(g)

	want := collectStream(t, e.StreamConjunctive(clauses, QueryOptions{}))
	if len(want) != nMembers {
		t.Fatalf("full stream = %d rows, want %d", len(want), nMembers)
	}

	var pages [][]Binding
	var cursor []kg.ValueKey
	for {
		page := collectStream(t, e.StreamConjunctive(clauses, QueryOptions{Limit: 4, Cursor: cursor}))
		if len(page) == 0 {
			break
		}
		pages = append(pages, page)
		cursor = BindingKey(page[len(page)-1])
		if len(page) < 4 {
			break
		}
	}
	var all []Binding
	for _, p := range pages {
		all = append(all, p...)
	}
	if len(all) != len(want) {
		t.Fatalf("paged union = %d rows, full stream = %d", len(all), len(want))
	}
	seen := make(map[string]bool, len(all))
	for i := range all {
		tok := bindingToken(all[i])
		if seen[tok] {
			t.Fatalf("row %d duplicated across pages", i)
		}
		seen[tok] = true
		if tok != bindingToken(want[i]) {
			t.Fatalf("paged row %d diverges from stream order", i)
		}
	}

	// A cursor naming a row that never existed is a position in the order
	// like any other: one past every row yields an empty remainder, one
	// before every row yields them all — never an error.
	beyond := []kg.ValueKey{kg.StringValue("no-such-binding").MapKey()} // strings sort after entities
	if got := collectStream(t, e.StreamConjunctive(clauses, QueryOptions{Cursor: beyond})); len(got) != 0 {
		t.Fatalf("cursor past the last row yielded %d rows, want 0", len(got))
	}
	before := []kg.ValueKey{{Kind: kg.KindEntity, Num: -5}}
	if got := collectStream(t, e.StreamConjunctive(clauses, QueryOptions{Cursor: before})); len(got) != nMembers {
		t.Fatalf("cursor before the first row yielded %d rows, want %d", len(got), nMembers)
	}

	// A cursor of the wrong arity is an error.
	bad := []kg.ValueKey{kg.IntValue(1).MapKey(), kg.IntValue(2).MapKey()}
	var gotErr error
	for _, err := range e.StreamConjunctive(clauses, QueryOptions{Cursor: bad}) {
		if err != nil {
			gotErr = err
		}
	}
	if gotErr == nil {
		t.Fatal("arity-mismatched cursor accepted")
	}
}

// Cursor tokens must round-trip adversarial ValueKeys exactly.
func TestCursorRoundTrip(t *testing.T) {
	tuples := [][]kg.ValueKey{
		{},
		{kg.StringValue("").MapKey()},
		{kg.StringValue("a;y=s:b").MapKey(), kg.StringValue("").MapKey()},
		{kg.EntityValue(42).MapKey(), kg.IntValue(-7).MapKey(), kg.BoolValue(true).MapKey()},
		{kg.FloatValue(math.Float64frombits(0x7ff8000000000001)).MapKey(), kg.FloatValue(math.Float64frombits(0x7ff8000000000002)).MapKey()},
		{kg.TimeValue(time.Unix(0, 123456789).UTC()).MapKey()},
	}
	for i, keys := range tuples {
		tok := EncodeCursor(keys)
		got, err := DecodeCursor(tok)
		if err != nil {
			t.Fatalf("tuple %d: decode: %v", i, err)
		}
		if len(got) != len(keys) {
			t.Fatalf("tuple %d: round-trip length %d != %d", i, len(got), len(keys))
		}
		for j := range got {
			if got[j] != keys[j] {
				t.Fatalf("tuple %d key %d: %+v != %+v", i, j, got[j], keys[j])
			}
		}
	}
	// Distinct adversarial tuples must encode distinctly (the dedup and
	// cursor comparison property).
	a := EncodeCursor([]kg.ValueKey{kg.StringValue("a;y=s:b").MapKey(), kg.StringValue("").MapKey()})
	b := EncodeCursor([]kg.ValueKey{kg.StringValue("a").MapKey(), kg.StringValue("b;y=s:").MapKey()})
	if a == b {
		t.Fatal("adversarial separator literals encode to the same cursor")
	}
	if _, err := DecodeCursor("!!!not-base64!!!"); err == nil {
		t.Fatal("garbage cursor accepted")
	}
	if _, err := DecodeCursor(EncodeCursor(nil) + "AAAA"); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// Context cancellation aborts the solve mid-join: after cancel, the
// stream yields no further rows and surfaces the context error as its
// final element.
func TestStreamConjunctiveContextCancel(t *testing.T) {
	g, clauses := streamFixture(t, 64)
	e := New(g)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	var gotErr error
	for _, err := range e.StreamConjunctive(clauses, QueryOptions{Context: ctx}) {
		if err != nil {
			gotErr = err
			continue
		}
		rows++
		cancel()
	}
	if !errors.Is(gotErr, context.Canceled) {
		t.Fatalf("cancelled stream error = %v, want context.Canceled", gotErr)
	}
	if rows != 1 {
		t.Fatalf("cancelled stream yielded %d rows after cancel on the first, want 1", rows)
	}

	// An already-expired timeout aborts before the first row.
	rows = 0
	gotErr = nil
	for _, err := range e.StreamConjunctive(clauses, QueryOptions{Timeout: time.Nanosecond}) {
		if err != nil {
			gotErr = err
			continue
		}
		rows++
	}
	if !errors.Is(gotErr, context.DeadlineExceeded) {
		t.Fatalf("timed-out stream error = %v, want context.DeadlineExceeded", gotErr)
	}
	if rows != 0 {
		t.Fatalf("timed-out stream yielded %d rows, want 0", rows)
	}
}

// Read-your-writes for the planner: facts asserted moments ago must be
// visible to the estimates and expansions of the very next query.
func TestPlannerCountersSeeFreshWrites(t *testing.T) {
	g := kg.NewGraphWithShards(8)
	member, _ := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	team, err := g.AddEntity(kg.Entity{Key: "team"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		p, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Assert(kg.Triple{Subject: p, Predicate: member, Object: kg.EntityValue(team)}); err != nil {
			t.Fatal(err)
		}
	}
	clause := Clause{Subject: V("p"), Predicate: member, Object: CE(team)}
	if got := planCost(g, clause, nil); got != n+1 {
		t.Fatalf("estimate over fresh writes = %d, want %d", got, n+1)
	}
	rows := collectStream(t, New(g).StreamConjunctive([]Clause{clause}, QueryOptions{}))
	if len(rows) != n {
		t.Fatalf("stream over fresh writes = %d rows, want %d", len(rows), n)
	}
}
