package kg

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Entity is the metadata record for a node in the graph. Facts about the
// entity live in the triple store; this record holds the identity and the
// textual features (name, aliases, description) that the semantic
// annotation service embeds and matches against (paper §3).
//
// A registered record is immutable: Graph.Entity hands it out with no
// lock held, and an update replaces it with a changed copy. The record
// AddEntity stores, and its Key and Name bytes, sit in dictionary-owned
// chunks in ID order.
type Entity struct {
	ID EntityID
	// Key is the stable external identifier ("Q42"-style).
	Key string
	// Name is the canonical display name.
	Name string
	// Aliases are alternative surface forms, used for mention detection.
	Aliases []string
	// Description is a short textual gloss used by contextual reranking.
	Description string
	// Types are the ontology types of the entity.
	Types []TypeID
	// Popularity is a query-log-derived importance prior in [0,1].
	Popularity float64
}

// Predicate is the metadata record for an edge label.
type Predicate struct {
	ID   PredicateID
	Name string
	// ValueKind constrains objects of this predicate (0 = unconstrained).
	ValueKind ValueKind
	// Functional predicates admit at most one current object per subject
	// (date of birth, capital). ODKE uses this to detect stale facts.
	Functional bool
}

// Graph is an in-memory triple store with entity/predicate dictionaries,
// a subject-major and a predicate-major index, and a mutation log. It is
// safe for concurrent use.
//
// # Locking
//
// One RWMutex (mu) guards the triple state: both fact layers, the
// predicate-major delta, the fact count and the mutation log. A write —
// Assert, Retract, one subject's run of an AssertBatch — holds the write
// lock; every read of the triple indexes holds the read lock once, for
// as long as it reads. So every read is a consistent cut: a fact list, a
// posting, a whole-graph scan (TriplesSnapshot, AllTriples, a
// Changefeed's Pull) each see the state after exactly the first LastSeq
// mutations at the moment the lock was taken. Writers serialize; readers
// share the lock with one another.
//
// The entity/predicate dictionaries live outside it (dict.go). A read by
// ID — Entity, Predicate, Entities, Predicates and assert validation —
// takes no lock: the records sit in append-only tables published through
// atomic pointers and lengths. Their writers serialize on the dictionary
// lock, which also guards the key and name maps that EntityByKey,
// PredicateByName and ReadDict read. AddEntity lays the records, and
// their keys and names, out in ID order, so rendering the entities of a
// posting, which lists them in ID order, reads neighboring memory.
//
// # Index layout and canonical order
//
// The facts sit in two layers: a frozen base that holds most of them and
// a small delta of the writes since. Every read merges the two.
//
//	base: one immutable, pointer-free frozen value (base.go)
//	     rows:  subject -> offsets into packed 16-byte rows, a subject's
//	            rows sorted by (predicate, object key); a string literal
//	            is an offset into one arena of the literals in order, a
//	            provenance an index into a small table of interned handles
//	     preds: predicate -> its distinct objects in key order, each
//	            with offsets into one []EntityID of ascending subjects
//	delta: subject -> []FactRow          (the rows the writes since the
//	     base changed, sorted like the base's: a fact the base lacks, a
//	     base fact hidden (op OpRetract), or a base fact under another
//	     provenance (op OpAssert))
//	pom: predicate -> the postings' delta (pom.go: the subjects each
//	     (predicate, object) gained and lost since the base, each list
//	     ascending, and the change in the totals)
//	log: chunks of 56-byte entries in sequence order (seq, subject,
//	     predicate and a FactRow whose op field holds the mutation's op;
//	     see mutlog.go)
//
// A read finds a (subject, predicate) list, or a (predicate, object)
// posting, by binary search in each layer and merges the two in key
// order (frozen.merge, posting.each), the way the as-of Overlay layers
// its graphs over a base graph. A bulk load into a graph that holds no
// fact — AssertBatch, the path of world generation, ImportGraph and
// checkpoint recovery — freezes its batch straight into the base. After
// that, once the delta holds more than a quarter of the base's facts
// (and more than foldFloor rows), the write that crossed the line folds
// it into a new base under the write lock, so the folds cost a write
// O(1) on average. Both build the base the one way (builder,
// sortPostings): the rows in identity order, then each predicate's
// postings radix-sorted on the object key. A base frozen from any update
// history, read through its delta, holds exactly what a graph built from
// scratch with the same facts holds. Layers reports the two layers'
// sizes and the folds.
//
// A delta row is a FactRow (row.go): its object key laid out flat and an
// interned provenance handle, 40 bytes where a Triple is 128; a base row
// is 16 bytes. No Triple is stored: every read that hands out Triples
// (Facts, FactsFunc, FactsChunked, OutgoingFunc, TriplesSnapshot,
// AllTriples, a Changefeed's Pull) builds them from rows, so what a
// reader gets is a copy. A built Triple's object is its key's Value —
// a string literal from the base is a substring of its arena — and its
// ObservedAt a UTC instant with no monotonic reading: exactly what a
// graph recovered from the write-ahead log holds.
//
// Every enumeration the query stack builds on — a fact list, a posting —
// is ordered by a key of the facts themselves, never by arrival: two
// graphs holding the same facts enumerate them identically whatever
// their writer interleavings, folds or retract/re-assert histories, and
// so does a graph recovered from a checkpoint. Cross-subject probes
// (SubjectsWithFunc, SubjectsWithCount, PredicateFrequency,
// PredicateEntriesFunc) read the predicate-major index instead of
// sweeping every subject; an entity's incoming edges under a known
// predicate are its posting.
//
// # Write path and lock order
//
// A mutation takes the write lock, finds the fact in the subject's delta
// rows and, failing that, in its base rows by binary search (which is
// also the duplicate check), records the change in the delta, maintains
// the predicate's posting delta, and logs it. A log append that starts a
// new chunk first trims the chunks every open feed has read, taking the
// feed registry's lock (feedMu) inside the write lock: mu, then feedMu,
// and nothing is acquired inside feedMu. A fold and a bulk load hold the
// write lock for the whole rebuild.
//
// # Visitor callbacks
//
// The visitors — FactsFunc, OutgoingFunc, SubjectsWithFunc,
// PredicateEntriesFunc, TriplesSnapshot — run their callback under the
// read lock. The callback must not mutate the graph, and must not read
// the triple indexes either: a second read lock blocks behind any writer
// queued between the two, and that writer waits for the first.
// Dictionary reads are allowed: reads by ID (Entity, Predicate,
// Entities, Predicates) take no lock, and the reads by key or name
// (EntityByKey, PredicateByName, ReadDict) take only the dictionary
// lock, which no code path holds while it waits for the graph lock.
// Entities and Predicates run their own callbacks with no lock held.
// Joins against further index reads use the chunked reads
// (FactsChunked, SubjectsWithChunked), whose callbacks run with no lock
// held.
//
// Fact identity is the comparable TripleKey struct (subject ID, predicate
// ID, object ValueKey); see ValueKey for the per-kind payload encoding.
// No strings are built on the Assert/Retract/HasFact paths. A subject's
// delta entry and a posting's delta list are deleted as they drain, and
// a fold empties the delta, so a long-lived graph under assert/retract
// churn does not leak them.
//
// # Mutation log and watermark semantics
//
// Every successful Assert/Retract draws a sequence number from one
// atomic counter that increases by exactly 1 per applied mutation; the
// counter is only ever advanced under the write lock, so the read lock
// freezes it. LastSeq()/TriplesSnapshot() expose the counter so derived
// structures (checkpoints) can record the watermark they were built at
// and later decide staleness with a single comparison: a derived
// structure at watermark w reflects exactly the first w mutations. The
// log itself is one list of fixed-capacity chunks in sequence order
// (mutlog.go); a Changefeed's Pull copies the entries past its cursor
// out under the read lock, one totally ordered change feed.
// Registering entities or predicates does not bump the watermark — a new
// entity is observable in derived edge structures only once a triple
// mentions it, and asserting that triple bumps the watermark.
//
// The in-memory log keeps only what an open changefeed still needs:
// Feed registers a feed and Close unregisters it, and the log holds the
// entries above the smallest open cursor — none when no feed is open —
// trimmed a chunk at a time as feeds read on (and checked whenever the
// log's last chunk fills). A feed may be bounded, so that it stops
// holding the log once it lags too far. TruncateLog, a test hook, drops a
// prefix whatever the feeds have read, and LogFloor reports the highest
// dropped sequence number. A read of the log past seq is complete only
// when seq >= LogFloor().
//
// Consumers read the log through a Changefeed (see changefeed.go), which
// packages the pull-then-recheck-floor protocol — pull a
// batch, verify LogFloor has not passed the cursor, advance — as a
// cursor-bearing handle with explicit floor/lag semantics and a single
// rematerialization fallback contract. The log has three consumers, the
// rules engine, the WAL drain and live subscriptions, and all consume it
// through a Changefeed.
//
// # Durability
//
// The graph itself is volatile. Crash-safe deployments pair it with
// internal/wal: the WAL manager drains this mutation log into an
// append-only CRC-framed log on disk (the watermark is the LSN) and takes
// periodic checkpoints under the read lock's cut. The durability contract
// is defined by the WAL's fsync policy — after a crash, recovery is
// guaranteed to restore a watermark-consistent prefix that includes every
// mutation at or below the WAL's acknowledged-durable watermark
// (wal.Manager.DurableLSN); see the internal/wal package documentation.
// A checkpoint other than a full one is the net change of a log window
// since the previous checkpoint, folded by NetChangeSince. Recovery loads
// a full checkpoint through AssertBatch's bulk load and applies
// each delta after it, fast-forwards the watermark with
// AdvanceWatermark, and replays the log suffix.
type Graph struct {
	// The dictionaries and the ontology, shared with every graph made
	// over this one by NewGraphOver.
	*dict

	// seq is the mutation watermark; advanced only under the write lock.
	seq atomic.Uint64

	// logFloor is the highest sequence number dropped from the mutation
	// log (retention, TruncateLog, AdvanceWatermark). Entries at or below
	// it are no longer retrievable via a Changefeed. It is raised BEFORE
	// any entry is dropped, so a consumer that pulls mutations and then
	// observes logFloor <= its watermark is guaranteed a complete feed.
	logFloor atomic.Uint64

	// feedMu guards feeds, every open feed's cursor, and retention's
	// reading of them with the raise of logFloor that follows. A trim
	// takes it under the write lock: feedMu is leaf-level.
	feedMu sync.Mutex
	feeds  []*Changefeed

	// mu guards everything below it but the atomics, which are written
	// under it and read without it.
	mu sync.RWMutex

	// delta[subj] is what the writes since the last fold changed of
	// subj's facts: its rows sorted by (predicate, object key), each
	// with an op that says what it does to the base (see frozen.merge).
	// A subject the writes left as the base has it has no entry.
	delta map[EntityID][]FactRow
	spare spares[FactRow]

	// pom holds the predicate-major index's delta (see pom.go).
	pom      map[PredicateID]*predDelta
	pomSpare spares[EntityID]

	// triples is the number of facts.
	triples int

	// log holds the mutation feed in ascending Seq.
	log mutLog

	// trimAt is the cursor at which the log's first chunk can be dropped
	// (mutLog.firstEnd), 0 for an empty log, so that a feed cursor moving
	// within a chunk costs a load, not a lock. It is stored under the
	// write lock: by a trim, which also holds feedMu, and by an append to
	// a one-chunk log. A value left stale by TruncateLog or
	// AdvanceWatermark costs at most one needless trim.
	trimAt atomic.Uint64

	// base is the frozen layer (base.go). Only a fold or a bulk load
	// replaces it, under the write lock.
	base   *frozen
	layers layerCounts
}

// NewGraph returns an empty graph with a fresh ontology.
func NewGraph() *Graph {
	return newGraph(newDict())
}

// NewGraphOver returns an empty graph that borrows lender's dictionaries
// and ontology: it holds its own facts, log and watermark, and accepts
// exactly the IDs the lender has registered, those registered after it
// was made included. The rule engine's derived facts and an as-of
// overlay's layers are such graphs.
func NewGraphOver(lender *Graph) *Graph {
	return newGraph(lender.dict)
}

// newGraph returns an empty graph over d.
func newGraph(d *dict) *Graph {
	return &Graph{dict: d, delta: map[EntityID][]FactRow{}, pom: map[PredicateID]*predDelta{}, base: &frozen{}}
}

// NumShards returns 1. The graph has one lock and no write shards; the
// method stays because the benchmark harness (bench/workload.go) prints
// it.
func (g *Graph) NumShards() int { return 1 }

// setDelta stores subj's delta rows, dropping the entry once they drain.
// The caller holds the write lock.
func (g *Graph) setDelta(subj EntityID, rows []FactRow) {
	if len(rows) > 0 {
		g.delta[subj] = rows
		return
	}
	g.spare.give(rows)
	delete(g.delta, subj)
}

// Ontology returns the graph's ontology.
func (g *Graph) Ontology() *Ontology { return g.ontology }

// validate checks a triple's references against the atomically published
// dictionary lengths, and that every time it carries is one a row can
// hold (see TimeInRange). IDs are assigned densely and only ever grow, so
// an ID below a length observed now is guaranteed registered; the check
// never takes a lock.
func (g *Graph) validate(t Triple) error {
	if int(t.Subject) >= g.ents.len() || t.Subject == NoEntity {
		return fmt.Errorf("kg: assert: unknown subject %v", t.Subject)
	}
	if int(t.Predicate) >= g.preds.len() || t.Predicate == NoPredicate {
		return fmt.Errorf("kg: assert: unknown predicate %v", t.Predicate)
	}
	if t.Object.Kind == 0 {
		return fmt.Errorf("kg: assert: invalid object value")
	}
	if t.Object.IsEntity() && (int(t.Object.Entity) >= g.ents.len() || t.Object.Entity == NoEntity) {
		return fmt.Errorf("kg: assert: unknown object entity %v", t.Object.Entity)
	}
	if t.Object.Kind == KindTime && !TimeInRange(t.Object.TS) {
		return fmt.Errorf("kg: assert: time %s is outside the representable range", t.Object.TS.Format(time.RFC3339))
	}
	if ts := t.Prov.ObservedAt; !ts.IsZero() && !TimeInRange(ts) {
		return fmt.Errorf("kg: assert: observation time %s is outside the representable range", ts.Format(time.RFC3339))
	}
	return nil
}

// Assert adds a triple to the graph and appends an OpAssert mutation.
// Asserting a fact with identical SPO identity is a no-op (provenance of
// the first assertion wins; use Retract+Assert to replace).
func (g *Graph) Assert(t Triple) error {
	_, err := g.AssertNew(t)
	return err
}

// AssertNew is Assert, additionally reporting whether the fact was newly
// added (false means a fact with the same SPO identity already existed).
// It replaces the NumTriples-before/after pattern callers used to detect
// duplicate asserts, which cost two extra lock round-trips per triple.
func (g *Graph) AssertNew(t Triple) (bool, error) {
	if err := g.validate(t); err != nil {
		return false, err
	}
	row := RowOf(t.Object, t.Prov)
	row.pred = t.Predicate
	g.mu.Lock()
	added := g.addLocked(t.Subject, row)
	g.mu.Unlock()
	if added {
		g.maybeFold()
	}
	return added, nil
}

// addLocked adds subj's fact row, which carries its predicate and no op,
// unless the graph holds it, and reports whether it did. The delta takes
// it as a row the base lacks, or by undoing (or, under another
// provenance, replacing) its base row's removal; the pom posting, the
// fact count and the log follow. The caller holds the write lock.
func (g *Graph) addLocked(subj EntityID, row FactRow) bool {
	d, key := g.delta[subj], row.Key()
	// A delta row found is a hidden base fact or the fact itself.
	i, inBase := slices.BinarySearchFunc(d, row, compareRows)
	switch {
	case inBase && d[i].op != OpRetract:
		return false
	case inBase:
		base := g.base.subject(subj, row.pred)
		if j, _ := g.base.search(base, key); g.base.provs[base[j].tag>>3] == row.prov {
			d = slices.Delete(d, i, i+1)
			g.layers.dels.Add(-1)
		} else {
			d[i] = row
			d[i].op = OpAssert
			g.layers.adds.Add(1)
		}
	default:
		if _, ok := g.base.search(g.base.subject(subj, row.pred), key); ok {
			return false
		}
		if d == nil {
			d = g.spare.take()
		}
		d = slices.Insert(d, i, row)
		g.layers.adds.Add(1)
	}
	g.setDelta(subj, d)
	g.triples++
	g.pomEdit(row.pred, key, subj, true, inBase)
	pred := row.pred
	row.pred, row.op = 0, OpAssert
	g.logLocked(subj, pred, row)
	return true
}

// logLocked appends a mutation to the log under a fresh sequence number.
// When the log's last chunk is full it first drops the chunks every open
// feed has read: a trim per chunk, not per entry. The caller holds the
// write lock.
func (g *Graph) logLocked(subj EntityID, pred PredicateID, row FactRow) {
	if g.log.full() {
		g.trimLocked()
	}
	seq := g.seq.Add(1)
	g.log.append(logEntry{seq: seq, subj: subj, pred: pred, row: row})
	if len(g.log.chunks) == 1 {
		g.trimAt.Store(seq)
	}
}

// AssertBatch is the batch ingestion fast path: it validates every triple
// up front (applying nothing on error), orders the batch by (subject,
// predicate, object identity), and applies it one subject at a time —
// one write-lock hold per subject. It returns the number of facts
// newly added — triples whose SPO identity already existed in the graph,
// or that repeat an identity earlier in the batch (first occurrence in
// input order wins), are skipped.
//
// A batch into a graph that holds no fact — world generation, ImportGraph,
// checkpoint recovery — is frozen straight into the base (see load).
// Input already sorted by SPO identity (the order AllTriples emits, i.e.
// what a disk restore or a sorted bulk load feeds back) is detected in
// O(n) and skips the O(n log n) comparison sort.
func (g *Graph) AssertBatch(ts []Triple) (added int, err error) {
	if len(ts) == 0 {
		return 0, nil
	}
	for i := range ts {
		if err := g.validate(ts[i]); err != nil {
			return 0, err
		}
	}
	keys := make([]TripleKey, len(ts))
	order := make([]int32, len(ts))
	for i := range ts {
		keys[i] = ts[i].IdentityKey()
		order[i] = int32(i)
	}
	sorted := true
	for i := 1; i < len(keys); i++ {
		if keys[i-1].Compare(keys[i]) > 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		// Key ordering makes duplicates adjacent and (subject, predicate)
		// runs contiguous; the input-index tie-break keeps "first assertion
		// wins" provenance semantics for in-batch duplicates (which a sorted
		// input has by construction: equal keys are adjacent, in input order).
		slices.SortFunc(order, func(a, b int32) int {
			if c := keys[a].Compare(keys[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	kept := order[:0]
	for _, oi := range order {
		if len(kept) == 0 || keys[oi] != keys[kept[len(kept)-1]] {
			kept = append(kept, oi)
		}
	}
	if g.load(ts, keys, kept) {
		return len(kept), nil
	}
	for i := 0; i < len(kept); {
		subj := keys[kept[i]].Subject
		g.mu.Lock()
		for ; i < len(kept) && keys[kept[i]].Subject == subj; i++ {
			row := rowOf(keys[kept[i]].Object, ts[kept[i]].Prov)
			row.pred = keys[kept[i]].Predicate
			if g.addLocked(subj, row) {
				added++
			}
		}
		g.mu.Unlock()
	}
	g.maybeFold()
	return added, nil
}

// load freezes the deduplicated, sorted batch kept straight into a new
// base, logging each fact, when the graph holds no fact; it reports
// false, and does nothing, otherwise. A graph that holds facts is told
// from its layer counts, without a lock, so that a batch into it never
// waits behind a reader to learn it.
func (g *Graph) load(ts []Triple, keys []TripleKey, kept []int32) bool {
	if g.layers.base.Load()+g.layers.adds.Load() > g.layers.dels.Load() {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.triples > 0 {
		return false
	}
	bl := newBuilder(len(kept))
	for _, oi := range kept {
		k := keys[oi]
		row := rowOf(k.Object, ts[oi].Prov)
		row.op = OpAssert
		g.logLocked(k.Subject, k.Predicate, row)
		row.pred, row.op = k.Predicate, 0
		bl.add(k.Subject, row)
	}
	g.triples = len(kept)
	b := bl.seal()
	b.sortPostings()
	g.install(b)
	return true
}

// Retract removes the fact with the same SPO identity as t, if present,
// and appends an OpRetract mutation carrying t. It reports whether a fact
// was removed.
func (g *Graph) Retract(t Triple) bool {
	g.mu.Lock()
	removed := g.removeLocked(t)
	g.mu.Unlock()
	if removed {
		g.maybeFold()
	}
	return removed
}

// removeLocked removes t's fact if the graph holds it, and reports
// whether it did: the delta drops the fact's added row, or hides its base
// row. The caller holds the write lock.
func (g *Graph) removeLocked(t Triple) bool {
	key := t.Object.MapKey()
	hide := FactRow{num: key.Num, str: key.Str, kind: key.Kind, op: OpRetract, pred: t.Predicate}
	d := g.delta[t.Subject]
	i, found := slices.BinarySearchFunc(d, hide, compareRows)
	inBase := !found || d[i].op != 0
	switch {
	case found && d[i].op == OpRetract:
		return false
	case !inBase:
		d = slices.Delete(d, i, i+1)
		g.layers.adds.Add(-1)
	case found:
		d[i] = hide
		g.layers.adds.Add(-1)
	default:
		if _, ok := g.base.search(g.base.subject(t.Subject, t.Predicate), key); !ok {
			return false
		}
		if d == nil {
			d = g.spare.take()
		}
		d = slices.Insert(d, i, hide)
		g.layers.dels.Add(1)
	}
	g.setDelta(t.Subject, d)
	g.triples--
	g.pomEdit(t.Predicate, key, t.Subject, false, inBase)
	row := rowOf(key, t.Prov)
	row.op = OpRetract
	g.logLocked(t.Subject, t.Predicate, row)
	return true
}

// Facts returns all triples with the given subject and predicate, in
// object-key order.
func (g *Graph) Facts(subj EntityID, pred PredicateID) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	base, delta := g.layersLocked(subj, pred)
	n := countRows(base, delta)
	if n == 0 {
		return nil
	}
	out := make([]Triple, 0, n)
	g.base.merge(base, delta, func(r FactRow) bool {
		out = out[:len(out)+1]
		r.fill(&out[len(out)-1], subj, pred)
		return true
	})
	return out
}

// FactsFunc streams the (subj, pred) triples to fn in object-key order
// under the read lock, stopping early if fn returns false. It is the
// allocation-free counterpart of Facts for callers that filter or
// aggregate and would discard the slice. fn must not mutate the graph or
// read its triple indexes; it may read the dictionaries (see Visitor
// callbacks on Graph).
func (g *Graph) FactsFunc(subj EntityID, pred PredicateID, fn func(Triple) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	base, delta := g.layersLocked(subj, pred)
	var t Triple
	g.base.merge(base, delta, func(r FactRow) bool {
		r.fill(&t, subj, pred)
		return fn(t)
	})
}

// FactsChunked streams the (subj, pred) triples to fn in object-key
// order, in chunks of at most chunkSize — the fact-list counterpart of
// the pom index's SubjectsWithChunked. Each chunk is copied out under one
// read-lock acquisition and fn runs with no locks held, so fn may read
// (or mutate) the graph and the lock hold time is bounded by chunkSize
// regardless of the fact list's length. fn returning false stops the
// enumeration; the chunk slice is reused across calls.
//
// Each chunk resumes at the first fact whose object key is greater than
// the last one delivered, so neither a write nor a fold can shift the
// read: every fact present for the whole enumeration is delivered exactly
// once, and none is delivered twice.
func (g *Graph) FactsChunked(subj EntityID, pred PredicateID, chunkSize int, fn func(chunk []Triple) bool) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	var (
		buf   []Triple
		after ValueKey // the zero key sorts before every fact's
	)
	for {
		g.mu.RLock()
		base, delta := g.layersLocked(subj, pred)
		if i, found := g.base.search(base, after); found {
			base = base[i+1:]
		} else {
			base = base[i:]
		}
		if i, found := SearchRows(delta, after); found {
			delta = delta[i+1:]
		} else {
			delta = delta[i:]
		}
		buf = slices.Grow(buf[:0], min(chunkSize, countRows(base, delta)))
		done := g.base.merge(base, delta, func(r FactRow) bool {
			if len(buf) == chunkSize {
				return false
			}
			buf = append(buf, Triple{})
			r.fill(&buf[len(buf)-1], subj, pred)
			return true
		})
		g.mu.RUnlock()
		if len(buf) == 0 || !fn(buf) || done {
			return
		}
		after = buf[len(buf)-1].Object.MapKey()
	}
}

// FactCount returns the number of (subj, pred, *) facts without
// materializing the fact slice: one read lock and a few binary searches.
// It is the planner's bound-subject selectivity probe.
func (g *Graph) FactCount(subj EntityID, pred PredicateID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return countRows(g.layersLocked(subj, pred))
}

// layersLocked returns subj's facts under pred — under every predicate
// for NoPredicate — as its base rows and its delta rows (see
// frozen.merge). The caller holds the lock.
func (g *Graph) layersLocked(subj EntityID, pred PredicateID) ([]baseRow, []FactRow) {
	delta := g.delta[subj]
	if pred != NoPredicate {
		i := lowerBound(delta, func(r FactRow) bool { return r.pred < pred })
		delta = delta[i : i+lowerBound(delta[i:], func(r FactRow) bool { return r.pred == pred })]
	}
	return g.base.subject(subj, pred), delta
}

// OutgoingFunc streams every triple whose subject is subj to fn under the
// read lock, stopping early if fn returns false. The order is by
// predicate ID, then by object key. fn must not mutate the graph or read
// its triple indexes; it may read the dictionaries (see Visitor
// callbacks on Graph).
func (g *Graph) OutgoingFunc(subj EntityID, fn func(Triple) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	base, delta := g.layersLocked(subj, NoPredicate)
	var t Triple
	g.base.merge(base, delta, func(r FactRow) bool {
		r.fill(&t, subj, r.pred)
		return fn(t)
	})
}

// HasFact reports whether the exact fact (ignoring provenance) is asserted.
func (g *Graph) HasFact(subj EntityID, pred PredicateID, obj Value) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	base, delta := g.layersLocked(subj, pred)
	key := obj.MapKey()
	if i, ok := SearchRows(delta, key); ok {
		return delta[i].op != OpRetract
	}
	_, ok := g.base.search(base, key)
	return ok
}

// NumTriples returns the number of asserted facts.
func (g *Graph) NumTriples() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.triples
}

// TriplesSnapshot streams every asserted triple to fn in identity order
// (by subject, then predicate ID, then object key), stopping early if fn
// returns false, and returns the mutation watermark the iteration
// reflects. Both happen under one read-lock hold, so derived structures
// (the training view, the walk embeddings' adjacency) get a consistent
// (triples, watermark) pair: the visited triples are exactly the state
// after the first `seq` mutations. fn must not mutate the graph or read
// its triple indexes; it may read the dictionaries (see Visitor
// callbacks on Graph).
func (g *Graph) TriplesSnapshot(fn func(Triple) bool) (seq uint64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var t Triple
	g.factsLocked(func(subj EntityID, r FactRow) bool {
		r.fill(&t, subj, r.pred)
		return fn(t)
	})
	return g.seq.Load()
}

// factsLocked calls fn with every fact in identity order, stopping early
// if fn returns false. The caller holds the lock.
func (g *Graph) factsLocked(fn func(subj EntityID, r FactRow) bool) {
	for s := EntityID(1); int(s) < g.ents.len(); s++ {
		base, delta := g.layersLocked(s, NoPredicate)
		if !g.base.merge(base, delta, func(r FactRow) bool { return fn(s, r) }) {
			return
		}
	}
}

// AllTriples materializes every asserted triple in identity order (by
// subject, then predicate, then object identity key).
func (g *Graph) AllTriples() []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.allTriplesLocked()
}

func (g *Graph) allTriplesLocked() []Triple {
	out := make([]Triple, 0, g.triples)
	g.factsLocked(func(subj EntityID, r FactRow) bool {
		out = out[:len(out)+1]
		r.fill(&out[len(out)-1], subj, r.pred)
		return true
	})
	return out
}

// appendMutationsSince appends the log's entries with sequence numbers
// strictly greater than seq to dst, ascending, under the read lock: the
// read behind a Changefeed's Pull. The log is in sequence order, so the
// entries past seq are one contiguous run of it.
func (g *Graph) appendMutationsSince(dst []Mutation, seq uint64) []Mutation {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, off := g.log.seek(seq)
	n := -off
	for _, chunk := range g.log.chunks[c:] {
		n += len(chunk)
	}
	dst = slices.Grow(dst, n)
	for ; c < len(g.log.chunks); c, off = c+1, 0 {
		chunk := g.log.chunks[c][off:]
		for j := range chunk {
			dst = dst[:len(dst)+1]
			chunk[j].fill(&dst[len(dst)-1])
		}
	}
	return dst
}

// LastSeq returns the sequence number of the most recent mutation. A bare
// atomic load: the mutation that owns the returned number may still be
// completing under the write lock, so treat the value as a staleness
// hint; use TriplesSnapshot or a Changefeed for reads whose watermark
// must exactly match the observed state.
func (g *Graph) LastSeq() uint64 {
	return g.seq.Load()
}

// LogFloor returns the highest mutation sequence number that has been
// dropped from the in-memory log (0 when nothing was ever dropped).
// A read of the log past seq is complete only when seq >= LogFloor().
// Retention keeps the floor at or below the smallest cursor of an open
// feed within its bound (see Changefeed.Bound); TruncateLog and
// AdvanceWatermark may raise it past any feed.
// Consumers maintaining derived state pull, then re-check the floor,
// and rebuild from scratch when the floor has passed their watermark
// (the floor is raised before entries are dropped, so this ordering can
// never miss a drop).
func (g *Graph) LogFloor() uint64 {
	return g.logFloor.Load()
}

// LogEntries returns the number of mutations the in-memory log holds.
func (g *Graph) LogEntries() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.log.len()
}

// raiseFloor raises logFloor to seq unless it is already there.
func (g *Graph) raiseFloor(seq uint64) {
	for {
		cur := g.logFloor.Load()
		if cur >= seq || g.logFloor.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// TruncateLog drops every mutation-log entry with sequence number at or
// below upTo, whether or not an open feed has read it, and returns the
// number of entries dropped. It is not how the log is compacted —
// retention drops what no open feed needs — but the fault hook tests use
// to force a floor pass: feeds it passes see an incomplete Pull and must
// fall back to a full read. The floor (LogFloor) is raised first, then
// the log is cut under the write lock, the chunk the cut lands in
// trimmed at its head; concurrent writers are unaffected (their entries
// are strictly above upTo), and concurrent log readers detect the
// truncation via the floor check described on LogFloor.
func (g *Graph) TruncateLog(upTo uint64) int {
	if upTo == 0 {
		return 0
	}
	// Raise the floor before dropping anything (see LogFloor). The floor
	// never exceeds the watermark: entries above the current seq do not
	// exist, so claiming them dropped would wedge consumers at a floor no
	// pull can ever satisfy.
	if wm := g.seq.Load(); upTo > wm {
		upTo = wm
	}
	g.raiseFloor(upTo)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.dropThrough(upTo)
}

// AdvanceWatermark fast-forwards the mutation watermark to seq without
// applying any mutations, discarding the in-memory mutation log and
// setting the log floor to seq. It exists for recovery: a checkpoint at
// watermark W restores its triples through AssertBatch (which assigns
// fresh low sequence numbers), after which AdvanceWatermark(W) makes the
// graph's watermark agree with the durable LSN space again — subsequent
// mutations draw W+1, W+2, ... exactly as if the process had kept
// running. Rewinding is not possible: seq below the current watermark
// is an error, and nothing is modified.
func (g *Graph) AdvanceWatermark(seq uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.seq.Load()
	if seq < cur {
		return fmt.Errorf("kg: AdvanceWatermark(%d) below current watermark %d", seq, cur)
	}
	// Floor first, then drop (same ordering contract as TruncateLog) —
	// though with the write lock held no reader can interleave.
	g.raiseFloor(seq)
	g.log = mutLog{}
	g.seq.Store(seq)
	return nil
}

// AllTriplesSnapshot is AllTriples plus the mutation watermark the
// materialized slice reflects, both taken under one read-lock hold. It
// is the checkpoint read: the returned triples are exactly the state
// after the first seq mutations, in identity order — the order
// AssertBatch detects in O(n) and a bulk load freezes straight into a
// base.
func (g *Graph) AllTriplesSnapshot() (ts []Triple, seq uint64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.allTriplesLocked(), g.seq.Load()
}
