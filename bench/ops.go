package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"saga/internal/kg"
	"saga/saga"
)

// An op list is a fixed cycle of shapes repeated with seeded
// parameters: every cycle holds the same multiset of shapes, so every
// slice (a whole number of cycles) does the same kind of work and the
// op, row and byte totals of a run depend on the seed alone.

type opKind uint8

const (
	kEntity opKind = iota
	kQuery
	kRelated
	kSearch
	kAnnotate
	kIngest
)

// op is one pre-rendered request plus what the checker needs.
type op struct {
	kind  opKind
	shape uint8  // index into the workload's shape names
	path  string // request path and query string
	body  string // POST body; for a query, everything before the closing brace
	cls   []clause
	limit int
	// Cursor walks: page is the page index within the walk, pages the
	// walk's length; page > 0 takes its cursor from the previous response.
	page, pages int
	ent         kg.EntityID // /entity, /related subject
	text        string      // /entity key, /search query, /annotate text
	batch       *writeBatch
	// loose marks an op whose answer the concurrent writer may change
	// (mixed-live): it is checked for status and shape only.
	loose bool
	exp   *expect
}

// expect is the oracle's answer for a sampled op.
type expect struct {
	rows map[uint64]struct{} // full answer set of a query, as row hashes
	strs []string            // sorted expected strings of a non-query op
}

// writeBatch is one /ingest request's mutations.
type writeBatch struct {
	asserts, retracts []fact
}

// zipf draws ranks in [0,n) with weight 1/(rank+1).
type zipf struct{ cum []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var s float64
	for i := range z.cum {
		s += 1 / float64(i+1)
		z.cum[i] = s
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// gen holds what op generation draws from.
type gen struct {
	w      *saga.World
	m      *model // dictionary (keys, predicate names)
	rng    *rand.Rand
	people *zipf
	teams  *zipf
	texts  []string // corpus snippets for /annotate
	words  []string // query vocabulary for /search
	fresh  int      // counter behind never-seen-before variable names
}

func newGen(w *saga.World, m *model, corpus []*saga.Document, seed int64) *gen {
	gn := &gen{
		w: w, m: m, rng: rand.New(rand.NewSource(seed)),
		people: newZipf(len(w.People)), teams: newZipf(len(w.Teams)),
	}
	seen := make(map[string]bool)
	for _, d := range corpus {
		text := d.Text
		if len(text) > 240 { // a paragraph, not a page
			text = text[:strings.LastIndexByte(text[:240], ' ')]
		}
		if len(d.Gold) > 0 { // a page that mentions someone: annotating it returns rows
			gn.texts = append(gn.texts, text)
		}
		for _, tok := range strings.Fields(d.Title) {
			if len(tok) > 3 && !seen[tok] {
				seen[tok] = true
				gn.words = append(gn.words, tok)
			}
		}
	}
	sort.Strings(gn.words)
	return gn
}

func (gn *gen) key(id kg.EntityID) string        { return gn.m.keys[id] }
func (gn *gen) pred(name string) kg.PredicateID  { return gn.w.Preds[name] }
func (gn *gen) person() kg.EntityID              { return gn.w.People[gn.people.draw(gn.rng)] }
func (gn *gen) cluster() int                     { return gn.teams.draw(gn.rng) }
func v(name string) term                         { return term{v: name} }
func e(id kg.EntityID) term                      { return term{e: id} }
func cl(s term, p kg.PredicateID, o term) clause { return clause{s: s, p: p, o: o} }
func (gn *gen) entityOp(shape uint8) op {
	id := gn.person()
	return op{kind: kEntity, shape: shape, ent: id, text: gn.key(id), path: "/entity?key=" + gn.key(id)}
}

func (gn *gen) relatedOp(shape uint8) op {
	id := gn.person()
	return op{kind: kRelated, shape: shape, ent: id, path: "/related?key=" + gn.key(id) + "&k=10"}
}

func (gn *gen) searchOp(shape uint8) op {
	q := gn.words[gn.rng.Intn(len(gn.words))] + " " + gn.words[gn.rng.Intn(len(gn.words))]
	return op{kind: kSearch, shape: shape, text: q, path: "/search?k=10&q=" + url.QueryEscape(q)}
}

func (gn *gen) annotateOp(shape uint8) op {
	text := gn.texts[gn.rng.Intn(len(gn.texts))]
	return op{kind: kAnnotate, shape: shape, text: text, path: "/annotate", body: `{"text":` + strconv.Quote(text) + `}`}
}

func (gn *gen) queryOp(shape uint8, limit int, cls ...clause) op {
	return op{kind: kQuery, shape: shape, path: "/query", cls: cls, limit: limit, body: gn.queryBody(cls, limit), pages: 1}
}

// queryBody renders a /query body up to, not including, its closing
// brace, so a cursor can be appended at run time.
func (gn *gen) queryBody(cls []clause, limit int) string {
	var b strings.Builder
	b.WriteString(`{"clauses":[`)
	for i, c := range cls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"subject":%s,"predicate":%q,"object":%s}`,
			gn.termJSON(c.s), gn.m.preds[c.p], gn.termJSON(c.o))
	}
	fmt.Fprintf(&b, `],"limit":%d`, limit)
	return b.String()
}

func (gn *gen) termJSON(t term) string {
	if t.v != "" {
		return `{"var":` + strconv.Quote(t.v) + `}`
	}
	return `{"key":` + strconv.Quote(gn.key(t.e)) + `}`
}

// Shape tables. The position of a shape in a cycle is fixed; only its
// parameters are drawn.

var serveShapes = []string{"entity", "q1-occ", "q1-collab", "q1-member", "q1-award", "j2-member-occ", "related", "search", "annotate"}

// serveCycle is the 20-op interactive mix: 8 entity lookups, 6
// one-clause queries (4 subject-bound with a handful of rows, 2
// object-bound with a team's or an award's ~50), 2 two-clause joins of
// ~150 rows, 2 related, 1 search, 1 annotate, interleaved the way a
// front end would issue them. The weights put the median op inside the
// band of the small lookups (entity and subject-bound queries, ~70% of
// ops) and the 95th percentile inside the band of the joins.
var serveCycle = []uint8{0, 1, 0, 3, 0, 6, 2, 0, 5, 0, 1, 7, 0, 4, 6, 0, 2, 5, 0, 8}

// serveOps generates n cycles of the serving mix. With loose set the
// shapes that read award/collaborator facts — which mixed-live's writer
// mutates — are checked for status and shape only.
func (gn *gen) serveOps(cycles int, loose bool) []op {
	member, award, occ, collab := gn.pred("memberOf"), gn.pred("award"), gn.pred("occupation"), gn.pred("collaborator")
	ops := make([]op, 0, cycles*len(serveCycle))
	for c := 0; c < cycles; c++ {
		for _, sh := range serveCycle {
			var o op
			switch sh {
			case 0:
				o = gn.entityOp(sh)
				o.loose = loose
			case 1:
				o = gn.queryOp(sh, 50, cl(e(gn.person()), occ, v("o")))
			case 2:
				o = gn.queryOp(sh, 50, cl(e(gn.person()), collab, v("c")))
				o.loose = loose
			case 3:
				o = gn.queryOp(sh, 50, cl(v("p"), member, e(gn.w.Teams[gn.cluster()])))
			case 4:
				o = gn.queryOp(sh, 50, cl(v("p"), award, e(gn.w.Awards[gn.cluster()])))
				o.loose = loose
			case 5:
				o = gn.queryOp(sh, 200, cl(v("p"), member, e(gn.w.Teams[gn.cluster()])), cl(v("p"), occ, v("o")))
			case 6:
				o = gn.relatedOp(sh)
			case 7:
				o = gn.searchOp(sh)
			case 8:
				o = gn.annotateOp(sh)
			}
			ops = append(ops, o)
		}
	}
	return ops
}

var scanShapes = []string{"walk-page", "j2-occ-member", "j2-occ-occ", "j2-occ-born", "j3-occ-member-award", "novel-shape"}

// walkPosting picks the occupation whose posting is closest to target
// subjects, so the cursor walk has about the same length on every seed.
func walkPosting(w *saga.World, m *model, target int) (kg.EntityID, int) {
	occ := w.Preds["occupation"]
	best, bestN := w.Occupations[0], -1
	for _, o := range w.Occupations {
		n := len(m.index().byPO[poKey{occ, oval{ent: o}}])
		if bestN < 0 || abs(n-target) < abs(bestN-target) {
			best, bestN = o, n
		}
	}
	return best, bestN
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scanOps generates n cycles of the scan mix: one full cursor walk of
// an occupation posting at pageSize rows a page, four two-clause joins
// at joinLimit and one three-clause join at three fifths of it (which
// costs about what a two-clause join does, so the five joins form one
// latency band for p95 to sit in), and two queries whose variable names
// no earlier query used, which are plan-cache misses by construction.
func (gn *gen) scanOps(cycles int, walkOcc kg.EntityID, walkRows, pageSize, joinLimit int) []op {
	member, award, occ, born := gn.pred("memberOf"), gn.pred("award"), gn.pred("occupation"), gn.pred("bornIn")
	pages := (walkRows + pageSize - 1) / pageSize
	anyOcc := func() kg.EntityID { return gn.w.Occupations[gn.rng.Intn(len(gn.w.Occupations))] }
	var ops []op
	for c := 0; c < cycles; c++ {
		for pg := 0; pg < pages; pg++ {
			o := gn.queryOp(0, pageSize, cl(v("p"), occ, e(walkOcc)))
			o.page, o.pages = pg, pages
			ops = append(ops, o)
		}
		a, b := anyOcc(), anyOcc()
		for b == a {
			b = anyOcc()
		}
		ops = append(ops,
			gn.queryOp(1, joinLimit, cl(v("p"), occ, e(anyOcc())), cl(v("p"), member, v("t"))),
			gn.queryOp(2, joinLimit, cl(v("p"), occ, e(a)), cl(v("p"), occ, e(b))),
			gn.queryOp(3, joinLimit, cl(v("p"), occ, e(anyOcc())), cl(v("p"), born, v("c"))),
			gn.queryOp(1, joinLimit, cl(v("p"), occ, e(anyOcc())), cl(v("p"), member, v("t"))),
			gn.queryOp(4, joinLimit*3/5, cl(v("p"), occ, e(anyOcc())), cl(v("p"), member, v("t")), cl(v("p"), award, v("a"))),
		)
		for i := 0; i < 2; i++ {
			gn.fresh++
			p, o := fmt.Sprintf("p%d", gn.fresh), fmt.Sprintf("o%d", gn.fresh)
			ops = append(ops, gn.queryOp(5, 200, cl(v(p), member, e(gn.w.Teams[gn.cluster()])), cl(v(p), occ, v(o))))
		}
	}
	return ops
}

// writeGen produces /ingest batches of facts that are new to the graph:
// half collaborator edges, a quarter awards, a quarter libraryID
// literals, subjects Zipf-skewed. Once lag batches are out, every batch
// also retracts the batch asserted lag batches earlier, so the live
// graph stays level, tombstones cycle through compaction, and all
// batches are one shape: the latency percentiles sit inside one class.
type writeGen struct {
	gn      *gen
	live    map[fact]struct{} // initial graph ∪ asserted − retracted
	history []*writeBatch
	size    int
	lag     int
	serial  int
}

func newWriteGen(gn *gen, m *model, size, lag int) *writeGen {
	live := make(map[fact]struct{}, len(m.facts))
	for f := range m.facts {
		live[f] = struct{}{}
	}
	return &writeGen{gn: gn, live: live, size: size, lag: lag}
}

func (wg *writeGen) next() *writeBatch {
	gn := wg.gn
	collab, award, lib := gn.pred("collaborator"), gn.pred("award"), gn.pred("libraryID")
	b := &writeBatch{}
	for len(b.asserts) < wg.size {
		var f fact
		switch i := len(b.asserts) % 4; {
		case i < 2:
			f = fact{s: gn.person(), p: collab, o: oval{ent: gn.person()}}
		case i == 2:
			f = fact{s: gn.person(), p: award, o: oval{ent: gn.w.Awards[gn.rng.Intn(len(gn.w.Awards))]}}
		default:
			wg.serial++
			f = fact{s: gn.person(), p: lib, o: oval{lit: strconv.Quote(fmt.Sprintf("BENCH-%08d", wg.serial))}}
		}
		if _, dup := wg.live[f]; dup || f.s == f.o.ent {
			continue
		}
		wg.live[f] = struct{}{}
		b.asserts = append(b.asserts, f)
	}
	if n := len(wg.history); n >= wg.lag {
		for _, f := range wg.history[n-wg.lag].asserts {
			delete(wg.live, f)
			b.retracts = append(b.retracts, f)
		}
	}
	wg.history = append(wg.history, b)
	return b
}

// ingestOp renders one batch as a POST /ingest.
func (gn *gen) ingestOp(b *writeBatch) op {
	var sb strings.Builder
	render := func(name string, fs []fact) {
		fmt.Fprintf(&sb, `%q:[`, name)
		for i, f := range fs {
			if i > 0 {
				sb.WriteByte(',')
			}
			obj := `{"key":` + strconv.Quote(gn.key(f.o.ent)) + `}`
			if f.o.ent == 0 {
				obj = `{"string":` + f.o.lit + `}` // lit is already a quoted Go string, valid JSON here
			}
			fmt.Fprintf(&sb, `{"subject":%q,"predicate":%q,"object":%s}`, gn.key(f.s), gn.m.preds[f.p], obj)
		}
		sb.WriteByte(']')
	}
	sb.WriteByte('{')
	render("asserts", b.asserts)
	if len(b.retracts) > 0 {
		sb.WriteByte(',')
		render("retracts", b.retracts)
	}
	sb.WriteByte('}')
	return op{kind: kIngest, path: "/ingest", body: sb.String(), batch: b}
}

var ingestShapes = []string{"ingest"}

func (gn *gen) ingestOps(wg *writeGen, batches int) []op {
	ops := make([]op, 0, batches)
	for i := 0; i < batches; i++ {
		ops = append(ops, gn.ingestOp(wg.next()))
	}
	return ops
}
