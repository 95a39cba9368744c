package saga

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"saga/internal/kg"
)

// The order contract: row order is a function of the facts. One seeded
// history — asserts, retracts, re-asserts, a hot posting that arrives
// shuffled — is ingested under every shard count and writer interleaving,
// recovered from a checkpoint plus log, and read back through the as-of
// overlay; every one of those must stream byte-identical rows and cut
// byte-identical cursor pages for a query set that covers every access
// path, one to three clauses, and a derived predicate.

const (
	orderSubjects = 5200 // all of them carry (type, person): the hot posting
	orderMembers  = 60   // the first few also join teams, know each other, score
	orderTeams    = 6
	orderRules    = "peer(X, Y) :- memberOf(X, T), memberOf(Y, T)."
)

type orderDict struct {
	subs, teams                       []EntityID
	person                            EntityID
	typ, memberOf, knows, score, peer PredicateID
}

// orderWorld registers the history's fixed dictionary, so every replica
// assigns identical IDs. The rule's head predicate is registered here too
// rather than on demand by DefineRulesText.
func orderWorld(t *testing.T, g *Graph) orderDict {
	t.Helper()
	ent := func(key string) EntityID {
		id, err := g.AddEntity(Entity{Key: key, Name: key})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	pred := func(name string) PredicateID {
		id, err := g.AddPredicate(Predicate{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	d := orderDict{person: ent("person")}
	for i := 0; i < orderTeams; i++ {
		d.teams = append(d.teams, ent(fmt.Sprintf("team%d", i)))
	}
	for i := 0; i < orderSubjects; i++ {
		d.subs = append(d.subs, ent(fmt.Sprintf("s%d", i)))
	}
	d.typ, d.memberOf, d.knows, d.score, d.peer = pred("type"), pred("memberOf"), pred("knows"), pred("score"), pred("peer")
	return d
}

// orderHistory is the seeded op sequence. Replaying it in order, or split
// by subject across concurrent writers, ends in the same set of facts.
func orderHistory(d orderDict) []kg.Mutation {
	rng := rand.New(rand.NewSource(20260926))
	var ops []kg.Mutation
	var live []Triple
	assert := func(tr Triple) {
		ops = append(ops, kg.Mutation{Op: kg.OpAssert, T: tr})
		live = append(live, tr)
	}
	// The hot posting, in shuffled arrival order.
	for _, i := range rng.Perm(orderSubjects) {
		assert(Triple{Subject: d.subs[i], Predicate: d.typ, Object: EntityValue(d.person)})
	}
	member := func() EntityID { return d.subs[rng.Intn(orderMembers)] }
	for i := 0; i < 1500; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			assert(Triple{Subject: member(), Predicate: d.memberOf, Object: EntityValue(d.teams[rng.Intn(orderTeams)])})
		case 2:
			assert(Triple{Subject: member(), Predicate: d.knows, Object: EntityValue(member())})
		case 3:
			obj := IntValue(int64(rng.Intn(50)))
			if rng.Intn(2) == 0 {
				obj = StringValue(fmt.Sprintf("grade-%d", rng.Intn(20)))
			}
			assert(Triple{Subject: member(), Predicate: d.score, Object: obj})
		case 4:
			// A base fact on the derived predicate: it may shadow a derived one.
			assert(Triple{Subject: member(), Predicate: d.peer, Object: EntityValue(member())})
		default:
			// Retract something asserted earlier; half of those come back.
			j := rng.Intn(len(live))
			ops = append(ops, kg.Mutation{Op: kg.OpRetract, T: live[j]})
			if rng.Intn(2) == 0 {
				ops = append(ops, kg.Mutation{Op: kg.OpAssert, T: live[j]})
			}
		}
	}
	return ops
}

// orderApply replays ops into g from the given number of concurrent
// writers. Ops are dealt by subject, so every fact's own assert/retract
// sequence stays in order on one writer while the writers interleave
// freely with each other.
func orderApply(t *testing.T, g *Graph, ops []kg.Mutation, writers int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range ops {
				if int(op.T.Subject)%writers != w {
					continue
				}
				if op.Op == kg.OpRetract {
					g.Retract(op.T)
				} else if err := g.Assert(op.T); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

type orderQuery struct {
	name    string
	derived bool // touches the rule head: not answerable by an as-of overlay
	clauses []QueryClause
}

func orderQueries(d orderDict) []orderQuery {
	s0, s1 := d.subs[0], d.subs[1]
	return []orderQuery{
		{"posting-hot", false, []QueryClause{{Subject: QVar("x"), Predicate: d.typ, Object: QEntity(d.person)}}},
		{"scan", false, []QueryClause{{Subject: QVar("x"), Predicate: d.memberOf, Object: QVar("t")}}},
		{"scan-literals", false, []QueryClause{{Subject: QVar("x"), Predicate: d.score, Object: QVar("v")}}},
		{"facts", false, []QueryClause{{Subject: QEntity(s0), Predicate: d.knows, Object: QVar("y")}}},
		{"posting-facts", false, []QueryClause{
			{Subject: QVar("x"), Predicate: d.memberOf, Object: QEntity(d.teams[0])},
			{Subject: QVar("x"), Predicate: d.score, Object: QVar("v")},
		}},
		{"three-clauses", false, []QueryClause{
			{Subject: QVar("x"), Predicate: d.memberOf, Object: QVar("t")},
			{Subject: QVar("y"), Predicate: d.memberOf, Object: QVar("t")},
			{Subject: QVar("x"), Predicate: d.knows, Object: QVar("y")},
		}},
		{"derived-scan", true, []QueryClause{{Subject: QVar("x"), Predicate: d.peer, Object: QVar("y")}}},
		{"derived-facts", true, []QueryClause{{Subject: QEntity(s1), Predicate: d.peer, Object: QVar("y")}}},
		{"derived-posting-join", true, []QueryClause{
			{Subject: QVar("x"), Predicate: d.peer, Object: QEntity(s1)},
			{Subject: QVar("x"), Predicate: d.score, Object: QVar("v")},
		}},
	}
}

// orderTranscript renders one stream source's answer to a query as text:
// the unlimited stream, then the same rows as a cursor walk with page
// breaks marked — two replicas agree on it only if they agree on every
// row, its position, and every page boundary.
func orderTranscript(t *testing.T, label string, stream func(QueryOptions) func(func(QueryRow, error) bool)) string {
	t.Helper()
	var sb strings.Builder
	rows := 0
	for r, err := range stream(QueryOptions{}) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sb.WriteString(EncodeQueryCursor(r.Key()))
		sb.WriteByte('\n')
		rows++
	}
	if rows == 0 {
		t.Fatalf("%s: streamed nothing — the fixture no longer exercises this query", label)
	}
	const pageSize = 97
	var cursor QueryCursor
	walked := 0
	for {
		n := 0
		for r, err := range stream(QueryOptions{Limit: pageSize, Cursor: cursor}) {
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cursor = r.Key()
			sb.WriteString(EncodeQueryCursor(cursor))
			sb.WriteByte('\n')
			n++
		}
		sb.WriteString("--page--\n")
		walked += n
		if n < pageSize || walked > rows {
			break
		}
	}
	return sb.String()
}

// orderPlatform wraps g with the rule program installed and settled.
func orderPlatform(t *testing.T, g *Graph) *Platform {
	t.Helper()
	p := New(g)
	if err := p.DefineRulesText(orderRules); err != nil {
		t.Fatal(err)
	}
	p.Rules().Sync()
	t.Cleanup(p.Rules().Close)
	return p
}

func TestRowOrderIsAFunctionOfTheFacts(t *testing.T) {
	var ref map[string]string // query name -> transcript, from the first replica
	check := func(replica string, q orderQuery, got string) {
		t.Helper()
		if got != ref[q.name] {
			t.Fatalf("%s: query %s diverges from the 1-shard, 1-writer replica (%d vs %d transcript bytes)", replica, q.name, len(got), len(ref[q.name]))
		}
	}
	live := func(p *Platform, q orderQuery) func(QueryOptions) func(func(QueryRow, error) bool) {
		return func(opts QueryOptions) func(func(QueryRow, error) bool) { return p.QueryRows(q.clauses, opts) }
	}

	var ops []kg.Mutation
	for _, shards := range []int{1, 2, 8} {
		for _, writers := range []int{1, 4} {
			replica := fmt.Sprintf("shards=%d writers=%d", shards, writers)
			g := NewGraphWithShards(shards)
			d := orderWorld(t, g)
			if ops == nil {
				ops = orderHistory(d)
			}
			orderApply(t, g, ops, writers)
			p := orderPlatform(t, g)
			if ref == nil {
				ref = make(map[string]string)
				for _, q := range orderQueries(d) {
					ref[q.name] = orderTranscript(t, replica+" "+q.name, live(p, q))
				}
				continue
			}
			for _, q := range orderQueries(d) {
				check(replica, q, orderTranscript(t, replica+" "+q.name, live(p, q)))
			}
		}
	}

	// The durable replica: checkpoint mid-history so recovery is a
	// checkpoint load plus a log replay, and the as-of overlay a retained
	// base plus a suffix.
	dir := t.TempDir()
	g := NewGraphWithShards(2)
	m, _, err := OpenDurable(dir, g, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := orderWorld(t, g)
	orderApply(t, g, ops[:len(ops)/2], 1)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	orderApply(t, g, ops[len(ops)/2:], 1)
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	p := orderPlatform(t, g)
	p.wal = m
	asOf := g.LastSeq()
	for _, q := range orderQueries(d) {
		check("durable live", q, orderTranscript(t, "durable live "+q.name, live(p, q)))
		if q.derived {
			continue
		}
		check("as-of overlay", q, orderTranscript(t, "as-of "+q.name, func(opts QueryOptions) func(func(QueryRow, error) bool) {
			rows, err := p.QueryRowsAt(q.clauses, asOf, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}))
	}
	if err := p.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	recovered := NewGraphWithShards(8)
	m2, info, err := OpenDurable(dir, recovered, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if info.RecoveredLSN != asOf {
		t.Fatalf("recovered LSN %d, want %d", info.RecoveredLSN, asOf)
	}
	p2 := orderPlatform(t, recovered)
	for _, q := range orderQueries(d) {
		check("recovered twin", q, orderTranscript(t, "recovered "+q.name, live(p2, q)))
	}
}
