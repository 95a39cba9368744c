package kg

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"time"
	"unique"
)

// frozen is the graph's base layer: most of its facts, frozen into
// sorted arrays that hold no pointer the collector has to trace, read
// through the small delta of writes since (graphShard.delta and the pom
// stripes' predDelta). It is never modified; a fold or a bulk load
// replaces it whole.
type frozen struct {
	// off[s] is where subject s's facts start in rows and off[s+1] where
	// they end, for s < len(off)-1. A subject's rows are sorted by
	// (predicate, object key): the canonical fact-list order.
	off  []uint32
	rows []baseRow
	// provs is the provenance table a row's tag indexes; provs[0] is the
	// zero provenance.
	provs []unique.Handle[provKey]
	// strs is the arena holding every string literal once, in order.
	strs string
	// preds[p] is predicate p's postings.
	preds []basePred
}

// baseRow is a fact in the base, 16 bytes: its object key's payload —
// for a string, the literal's offset in the arena over its length, which
// orders as the literal does — its predicate, and its provenance's index
// in the table over the key's kind.
// The postings' keys are baseRows with no predicate or provenance. So a
// base holds up to 2^32 facts, 4 GiB of string literals and 2^29
// distinct provenances.
type baseRow struct {
	num  int64
	pred PredicateID
	tag  uint32 // provenance index << 3 | kind
}

// basePred holds one predicate's postings: its distinct objects in key
// order, and the subjects of keys[i], ascending, at
// subjs[off[i]:off[i+1]].
type basePred struct {
	keys     []baseRow
	off      []uint32
	subjs    []EntityID
	entities int // facts with an entity object
}

// key returns the object key r carries.
func (b *frozen) key(r baseRow) ValueKey {
	k := ValueKey{Kind: ValueKind(r.tag & 7), Num: r.num}
	if k.Kind == KindString {
		k.Str, k.Num = b.strs[uint64(r.num)>>32:][:uint32(r.num)], 0
	}
	return k
}

// row returns r as the row a delta holds.
func (b *frozen) row(r baseRow) FactRow {
	k := b.key(r)
	return FactRow{num: k.Num, str: k.Str, kind: k.Kind, prov: b.provs[r.tag>>3], pred: r.pred}
}

// subject returns subj's rows, restricted to pred's unless pred is
// NoPredicate.
func (b *frozen) subject(subj EntityID, pred PredicateID) []baseRow {
	if int(subj)+1 >= len(b.off) {
		return nil
	}
	rows := b.rows[b.off[subj]:b.off[subj+1]]
	if pred == NoPredicate {
		return rows
	}
	i := lowerBound(rows, func(r baseRow) bool { return r.pred < pred })
	return rows[i : i+lowerBound(rows[i:], func(r baseRow) bool { return r.pred == pred })]
}

// lowerBound returns the index of the first of rows that before does not
// hold of, where before holds of a prefix of rows: a binary search.
func lowerBound[R any](rows []R, before func(R) bool) int {
	i, j := 0, len(rows)
	for i < j {
		if h := int(uint(i+j) >> 1); before(rows[h]) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// search returns where the row with object key k sits in rows sorted by
// object key, or where it would go, and whether it is there.
func (b *frozen) search(rows []baseRow, k ValueKey) (int, bool) {
	i := lowerBound(rows, func(r baseRow) bool { return b.key(r).Compare(k) < 0 })
	return i, i < len(rows) && b.key(rows[i]) == k
}

// posting returns the base's (pred, k) posting.
func (b *frozen) posting(pred PredicateID, k ValueKey) []EntityID {
	if int(pred) >= len(b.preds) {
		return nil
	}
	p := &b.preds[pred]
	i, ok := b.search(p.keys, k)
	if !ok {
		return nil
	}
	return p.subjs[p.off[i]:p.off[i+1]]
}

// merge calls fn with the facts of base rows read through delta rows, in
// (predicate, object key) order, and reports whether it ran to the end. A
// delta row takes the place of the base row of the same fact — hiding it
// when its op is OpRetract, replacing its provenance when OpAssert — and a
// delta row with op zero is a fact the base lacks.
func (b *frozen) merge(base []baseRow, delta []FactRow, fn func(FactRow) bool) bool {
	var r FactRow
	for i, j := 0, 0; i < len(base) || j < len(delta); {
		c := 1
		if i < len(base) {
			r = b.row(base[i])
			c = -1
			if j < len(delta) {
				c = compareRows(r, delta[j])
			}
		}
		if c >= 0 {
			r = delta[j]
			j++
		}
		if c <= 0 {
			i++
		}
		if r.op != OpRetract && !fn(r) {
			return false
		}
	}
	return true
}

// compareRows orders two rows of one subject by (predicate, object key).
func compareRows(a, b FactRow) int {
	switch {
	case a.pred != b.pred:
		return cmp.Compare(a.pred, b.pred)
	case a.kind != b.kind:
		return cmp.Compare(a.kind, b.kind)
	case a.num != b.num:
		return cmp.Compare(a.num, b.num)
	}
	return strings.Compare(a.str, b.str)
}

// countRows returns the number of facts base rows read through delta rows
// hold.
func countRows(base []baseRow, delta []FactRow) int {
	n := len(base)
	for i := range delta {
		if delta[i].op == 0 {
			n++
		} else if delta[i].op == OpRetract {
			n--
		}
	}
	return n
}

// builder freezes facts, added in identity order, into a base.
type builder struct {
	b     *frozen
	provs map[unique.Handle[provKey]]uint32
	strs  map[string]int64 // a literal's index in arrival order, until seal
}

func newBuilder(facts int) *builder {
	return &builder{
		b:     &frozen{rows: make([]baseRow, 0, facts), provs: []unique.Handle[provKey]{{}}},
		provs: map[unique.Handle[provKey]]uint32{{}: 0},
		strs:  map[string]int64{},
	}
}

// add appends subj's fact r. Facts come in identity order.
func (bl *builder) add(subj EntityID, r FactRow) {
	b := bl.b
	for EntityID(len(b.off)) <= subj {
		b.off = append(b.off, uint32(len(b.rows)))
	}
	p, ok := bl.provs[r.prov]
	if !ok {
		p = uint32(len(b.provs))
		bl.provs[r.prov] = p
		b.provs = append(b.provs, r.prov)
	}
	row := bl.key(r.Key())
	row.pred, row.tag = r.pred, p<<3|row.tag
	b.rows = append(b.rows, row)
}

// key encodes k as a key of the base being built; a string's payload is
// its index among the literals until seal places it in the arena.
func (bl *builder) key(k ValueKey) baseRow {
	r := baseRow{num: k.Num, tag: uint32(k.Kind)}
	if k.Kind == KindString {
		at, ok := bl.strs[k.Str]
		if !ok {
			at = int64(len(bl.strs))
			bl.strs[k.Str] = at
		}
		r.num = at
	}
	return r
}

// seal ends the rows and lays the string literals out in the arena in
// order, so that string keys order as their payloads do.
func (bl *builder) seal() *frozen {
	b := bl.b
	b.off = append(b.off, uint32(len(b.rows)))
	at := make([]int64, len(bl.strs))
	var arena []byte
	for _, s := range slices.Sorted(maps.Keys(bl.strs)) {
		at[bl.strs[s]] = int64(len(arena))<<32 | int64(len(s))
		arena = append(arena, s...)
	}
	for i, r := range b.rows {
		if r.tag&7 == uint32(KindString) {
			b.rows[i].num = at[r.num]
		}
	}
	b.strs = string(arena)
	return b
}

// sortPostings builds the postings of a sealed base from its rows: each
// predicate's (object key, subject) pairs, laid out by predicate and kind
// in subject order, then radix-sorted on the key's payload, which keeps
// each key's subjects ascending.
func (b *frozen) sortPostings() {
	preds := 0
	for _, r := range b.rows {
		preds = max(preds, int(r.pred)+1)
	}
	class := func(r baseRow) int { return int(r.pred)<<3 | int(r.tag&7) }
	start := make([]int, preds<<3+1) // start[c+1] is where class c's pairs end
	for _, r := range b.rows {
		start[class(r)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	type entry struct {
		key  baseRow
		subj EntityID
	}
	es, at := make([]entry, len(b.rows)), slices.Clone(start)
	for s := 0; s+1 < len(b.off); s++ {
		for _, r := range b.rows[b.off[s]:b.off[s+1]] {
			es[at[class(r)]] = entry{baseRow{num: r.num, tag: r.tag & 7}, EntityID(s)}
			at[class(r)]++
		}
	}
	for c := 0; c+1 < len(start); c++ {
		radixSort(es[start[c]:start[c+1]], func(e entry) uint64 {
			if e.key.tag == uint32(KindString) {
				return uint64(e.key.num)
			}
			return uint64(e.key.num) ^ 1<<63 // a signed payload
		})
	}
	b.preds = make([]basePred, preds)
	for pred := range b.preds {
		es := es[start[pred<<3]:start[(pred+1)<<3]]
		// Strings are in the arena once, so keys are == exactly when equal.
		keys := 0
		for i := range es {
			if i == 0 || es[i].key != es[i-1].key {
				keys++
			}
		}
		p := &b.preds[pred]
		p.keys, p.off, p.subjs = make([]baseRow, 0, keys), make([]uint32, 0, keys+1), make([]EntityID, len(es))
		for i, e := range es {
			if i == 0 || e.key != es[i-1].key {
				p.keys = append(p.keys, e.key)
				p.off = append(p.off, uint32(i))
			}
			p.subjs[i] = e.subj
			if e.key.tag == uint32(KindEntity) {
				p.entities++
			}
		}
		p.off = append(p.off, uint32(len(es)))
	}
}

// spares keeps the arrays of drained delta lists for the lists the next
// writes start, so that a delta under steady churn allocates nothing.
type spares[T any] [][]T

func (s *spares[T]) take() (x []T) {
	if n := len(*s); n > 0 {
		x, *s = (*s)[n-1], (*s)[:n-1]
	}
	return x
}

// give keeps x's array, whose elements the caller has zeroed.
func (s *spares[T]) give(x []T) {
	if len(*s) < 64 {
		*s = append(*s, x[:0])
	}
}

// foldFloor is the delta size below which no fold runs, however small
// the base.
const foldFloor = 4096

// maybeFold folds the delta into a new base once it holds more than a
// quarter of the base's facts and more than foldFloor rows: the
// adjacency snapshot's rebuild rule, which keeps the cost of the folds a
// write pays for constant on average and the delta small beside the base.
func (g *Graph) maybeFold() {
	full := func() bool {
		return g.layers.adds.Load()+g.layers.dels.Load() > max(foldFloor, g.layers.base.Load()/4)
	}
	if !full() {
		return
	}
	g.lockAll()
	defer g.unlockAll()
	if full() {
		g.foldLocked()
	}
}

// foldLocked freezes every fact into a new base and empties the delta.
// The caller holds every shard's and every stripe's write lock.
func (g *Graph) foldLocked() {
	start := time.Now()
	n := 0
	for i := range g.shards {
		n += g.shards[i].triples
	}
	bl := newBuilder(n)
	g.factsLocked(func(subj EntityID, r FactRow) bool {
		bl.add(subj, r)
		return true
	})
	b := bl.seal()
	b.sortPostings()
	g.install(b)
	g.layers.folds.Add(1)
	g.layers.foldNanos.Store(int64(time.Since(start)))
}

// install makes b the base, which holds every fact, and empties the
// delta. The caller holds every shard's and every stripe's write lock.
func (g *Graph) install(b *frozen) {
	g.base = b
	for i := range g.shards {
		g.shards[i].delta = map[EntityID][]FactRow{}
	}
	for i := range g.pom {
		clear(g.pom[i].preds)
	}
	g.layers.base.Store(int64(len(g.base.rows)))
	g.layers.adds.Store(0)
	g.layers.dels.Store(0)
}

// layerCounts are the graph's layer sizes, kept in atomics so that a
// reader never waits behind a fold.
type layerCounts struct {
	base, adds, dels, folds, foldNanos atomic.Int64
}

// Layers reports how the graph's facts sit in its two layers: the frozen
// base, and the delta of facts added since and base facts removed since
// (a base fact re-asserted with another provenance counts in both). The
// fact count is BaseFacts + DeltaAdds - DeltaRemovals. The figures are
// atomics read one at a time, never behind a lock.
func (g *Graph) Layers() LayerStats {
	return LayerStats{
		BaseFacts:     g.layers.base.Load(),
		DeltaAdds:     g.layers.adds.Load(),
		DeltaRemovals: g.layers.dels.Load(),
		Folds:         g.layers.folds.Load(),
		LastFoldMs:    float64(g.layers.foldNanos.Load()) / 1e6,
	}
}

// LayerStats is what Layers reports.
type LayerStats struct {
	BaseFacts     int64   `json:"base_facts"`
	DeltaAdds     int64   `json:"delta_adds"`
	DeltaRemovals int64   `json:"delta_removals"`
	Folds         int64   `json:"folds"`
	LastFoldMs    float64 `json:"last_fold_ms"`
}
