package kg

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Entity is the metadata record for a node in the graph. Facts about the
// entity live in the triple store; this record holds the identity and the
// textual features (name, aliases, description) that the semantic
// annotation service embeds and matches against (paper §3).
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

// HasType reports whether the entity carries the exact type t.
func (e *Entity) HasType(t TypeID) bool {
	for _, et := range e.Types {
		if et == t {
			return true
		}
	}
	return false
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

// graphShard holds the triple indexes and mutation sub-log for the
// subjects whose ID hashes to the shard. Everything inside is guarded by
// the shard's own lock, so writers touching different shards never
// contend. The trailing pad keeps two shards' mutexes off one cache line.
type graphShard struct {
	mu sync.RWMutex

	// spo maps subject -> predicate -> the (subj, pred) fact list, sorted
	// by object key with no duplicates. The sorted list is also the
	// shard's identity set: membership is a binary search of it.
	spo map[EntityID]map[PredicateID][]FactRow

	// triples is the number of facts in spo.
	triples int

	// log holds this shard's slice of the global mutation feed. Sequence
	// numbers are drawn from Graph.seq while the shard write lock is held,
	// so within one shard the log is strictly ascending in Seq.
	log mutLog

	_ [64]byte // pad to 128 bytes so neighboring shard mutexes don't share a line
}

func (sh *graphShard) init() {
	sh.spo = make(map[EntityID]map[PredicateID][]FactRow)
}

// Graph is an in-memory triple store with entity/predicate dictionaries,
// a subject-major and a predicate-major index, and a mutation log. It is
// safe for concurrent use.
//
// # Sharded write path
//
// The subject-major index is partitioned into S shards (S a power of
// two, default GOMAXPROCS rounded up) by subject ID, each with its own
// RWMutex, so concurrent Assert/Retract on different subjects scale with
// cores instead of serializing on one graph lock. Reads bound to a
// subject (Facts, OutgoingFunc, HasFact) touch exactly one shard. Reads
// bound to a predicate (SubjectsWithFunc, PredicateFrequency) touch
// exactly one pom stripe. Reads that span subjects either visit shards
// one at a time (NumTriples — each shard internally consistent, the sum
// as fresh as the moment its shard was visited) or, when they carry
// watermark semantics (TriplesSnapshot, MutationsSince, AllTriples), hold
// every shard's read lock at once for a single consistent cut. Shard
// locks are always acquired in index order and writers hold at most one
// shard lock, so the two patterns cannot deadlock.
//
// The entity/predicate dictionaries live outside the shards behind their
// own lock; assert validation reads only atomically published dictionary
// lengths, keeping dictionary readers off the write hot path.
//
// # Index layout and canonical order
//
//	spo: subject -> predicate -> []FactRow         (fact lookup, outgoing,
//	     and SPO identity: each list is sorted by object key, so
//	     membership and removal are a binary search)
//	pom: predicate -> ValueKey -> []EntityID       (the predicate-major
//	     index, see pom.go: each posting sorted by subject ID, merged
//	     across shards, partitioned into per-predicate lock stripes, with
//	     per-predicate triple and entity-triple totals)
//	log: per shard, chunks of 56-byte entries      (seq, subject,
//	     predicate and a FactRow whose op field holds the mutation's op;
//	     see mutlog.go)
//
// A fact is stored as a FactRow (row.go): its object key laid out flat
// and an interned provenance handle, 40 bytes where a Triple is 128. The
// subject and predicate are the map keys above it. No Triple is stored:
// every read that hands out Triples (Facts, FactsFunc, FactsChunked,
// OutgoingFunc, TriplesSnapshot, AllTriples, MutationsSince) builds them
// from rows, so what a reader gets is a copy. A built Triple's object is
// its key's Value and its ObservedAt a UTC instant with no monotonic
// reading — exactly what a graph recovered from the write-ahead log holds.
//
// Every enumeration the query stack builds on — a fact list, a posting —
// is ordered by a key of the facts themselves, never by arrival: two
// graphs holding the same facts enumerate them identically whatever
// their shard counts, writer interleavings or retract/re-assert
// histories, and so does a graph recovered from a checkpoint.
// Cross-subject probes (SubjectsWithFunc, SubjectsWithCount,
// PredicateFrequency, PredicateEntriesFunc, ComputeStats) read one pom
// stripe instead of sweeping every shard; an entity's incoming edges
// under a known predicate are its posting.
//
// # Write path and lock order
//
// A mutation takes its subject shard's write lock, finds the fact's slot
// in the sorted (subj, pred) list by binary search (which is also the
// duplicate check), splices the list, and then maintains the pom posting
// inline under the predicate's stripe lock — shard lock, then stripe
// lock, the stripe strictly leaf-level. Because every stripe write
// happens under a shard write lock, the all-shard read lock (rlockAll)
// freezes the pom index at the watermark exactly like the sharded
// indexes. Entity IDs are dense and grow monotonically and AssertBatch
// applies in ascending subject order, so world generation, ImportGraph
// and checkpoint recovery insert at the tail of every list they grow.
//
// # Visitor callbacks
//
// The visitors — FactsFunc, OutgoingFunc, SubjectsWithFunc,
// PredicateEntriesFunc, TriplesSnapshot — run their callback under a
// shard or stripe read lock. The callback must not mutate the graph, and
// must not read the triple indexes either: a second read lock on a shard
// or stripe blocks behind any writer queued between the two, and that
// writer waits for the first. Dictionary reads (Entity, Predicate,
// EntityByKey, PredicateByName, Entities, ...) are allowed: no code path
// takes a shard or stripe lock while holding the dictionary lock, and
// Entities/Predicates run their own callbacks with no lock held. Joins
// against further index reads use the chunked reads (FactsChunked,
// SubjectsWithChunked), whose callbacks run with no lock held.
//
// Fact identity is the comparable TripleKey struct (subject ID, predicate
// ID, object ValueKey); see ValueKey for the per-kind payload encoding.
// No strings are built on the Assert/Retract/HasFact paths. Index slices
// and inner maps are deleted as they drain, so a long-lived graph under
// assert/retract churn does not leak map entries.
//
// # Mutation log and watermark semantics
//
// Every successful Assert/Retract draws a sequence number from one global
// atomic counter that increases by exactly 1 per applied mutation; the
// counter is only ever advanced while the mutating shard's write lock is
// held, so holding every shard's read lock freezes it. LastSeq()/
// TriplesSnapshot() expose the counter so derived structures
// (materialized views, adjacency snapshots) can record the watermark they
// were built at and later decide staleness with a single comparison: a
// derived structure at watermark w reflects exactly the first w
// mutations. The log itself is stored as per-shard sub-logs of
// fixed-capacity chunks (mutlog.go); MutationsSince merges them by
// sequence number under the all-shard read lock, so consumers still see
// one totally ordered change feed.
// Registering entities or predicates does not bump the watermark — a new
// entity is observable in derived edge structures only once a triple
// mentions it, and asserting that triple bumps the watermark.
//
// The in-memory log can be compacted: TruncateLog drops entries at or
// below a sequence number once a durable copy exists elsewhere (a WAL
// segment, a checkpoint), and LogFloor reports the highest dropped
// sequence. MutationsSince(seq) is complete only when seq >= LogFloor().
//
// Consumers do not call MutationsSince directly: the Changefeed (see
// changefeed.go) packages the pull-then-recheck-floor protocol — pull a
// batch, verify LogFloor has not passed the cursor, advance — as a
// cursor-bearing handle with explicit floor/lag semantics and a single
// rematerialization fallback contract. The graphengine adjacency
// snapshot, materialized views, ondevice static assets, the WAL drain,
// and live subscriptions all consume the log through it.
//
// # Durability
//
// The graph itself is volatile. Crash-safe deployments pair it with
// internal/wal: the WAL manager drains this mutation log into an
// append-only CRC-framed log on disk (the watermark is the LSN) and takes
// periodic checkpoints under the all-shard cut. The durability contract
// is defined by the WAL's fsync policy — after a crash, recovery is
// guaranteed to restore a watermark-consistent prefix that includes every
// mutation at or below the WAL's acknowledged-durable watermark
// (wal.Manager.DurableLSN); see the internal/wal package documentation.
// A checkpoint other than a full one is the net change of a log window
// since the previous checkpoint, folded by NetChangeSince. Recovery loads
// a full checkpoint through the AssertBatch merge-append path and applies
// each delta after it, fast-forwards the watermark with
// AdvanceWatermark, and replays the log suffix.
type Graph struct {
	ontology *Ontology

	// dictMu guards the entity/predicate dictionaries. entLen/predLen
	// mirror len(entities)/len(predicates) and are published atomically so
	// assert validation never touches the dictionary lock.
	dictMu     sync.RWMutex
	entities   []*Entity // EntityID -> *Entity (index 0 unused)
	entByKey   map[string]EntityID
	predicates []*Predicate // PredicateID -> *Predicate (index 0 unused)
	predByName map[string]PredicateID
	entLen     atomic.Int64
	predLen    atomic.Int64

	// dirtyEnts collects entity IDs whose records were updated in place
	// (SetPopularity / UpdateEntity) since the last TakeDirtyEntities
	// drain. Record updates do not flow through the mutation log — they
	// carry no sequence number — so the WAL drains this set instead to
	// make them durable between checkpoints. Guarded by dictMu; allocated
	// lazily on first update.
	dirtyEnts map[EntityID]struct{}

	// seq is the global mutation watermark; advanced only under a shard
	// write lock.
	seq atomic.Uint64

	// logFloor is the highest sequence number dropped from the per-shard
	// mutation sub-logs (TruncateLog / AdvanceWatermark). Entries at or
	// below it are no longer retrievable via MutationsSince. It is raised
	// BEFORE any entry is dropped, so a consumer that pulls mutations and
	// then observes logFloor <= its watermark is guaranteed a complete
	// feed.
	logFloor atomic.Uint64

	shardMask uint32
	shards    []graphShard

	// pom is the predicate-major secondary index (see pom.go).
	pom [pomStripeCount]pomStripe
}

// NewGraph returns an empty graph with a fresh ontology and the default
// shard count (GOMAXPROCS rounded up to a power of two).
func NewGraph() *Graph {
	return NewGraphWithShards(runtime.GOMAXPROCS(0))
}

// NewGraphWithShards returns an empty graph with the given number of
// write shards, rounded up to a power of two and clamped to [1, 256]
// (n <= 0 clamps to 1, the classic single-lock graph; benchmarks use it
// as the scaling baseline).
func NewGraphWithShards(n int) *Graph {
	s := 1
	for s < n && s < 256 {
		s <<= 1
	}
	g := &Graph{
		ontology:   NewOntology(),
		entities:   []*Entity{nil},
		entByKey:   make(map[string]EntityID),
		predicates: []*Predicate{nil},
		predByName: make(map[string]PredicateID),
		shardMask:  uint32(s - 1),
		shards:     make([]graphShard, s),
	}
	g.entLen.Store(1)
	g.predLen.Store(1)
	for i := range g.shards {
		g.shards[i].init()
	}
	for i := range g.pom {
		g.pom[i].preds = make(map[PredicateID]*predPostings)
	}
	return g
}

// NumShards returns the number of write shards.
func (g *Graph) NumShards() int { return len(g.shards) }

func (g *Graph) shardIndex(subj EntityID) uint32 { return uint32(subj) & g.shardMask }

func (g *Graph) shard(subj EntityID) *graphShard { return &g.shards[g.shardIndex(subj)] }

// rlockAll acquires every shard's read lock in index order, freezing the
// watermark and the whole triple state — the pom index included, since
// every stripe write happens under a shard write lock — for a consistent
// cut.
func (g *Graph) rlockAll() {
	for i := range g.shards {
		g.shards[i].mu.RLock()
	}
}

func (g *Graph) runlockAll() {
	for i := range g.shards {
		g.shards[i].mu.RUnlock()
	}
}

// Ontology returns the graph's ontology.
func (g *Graph) Ontology() *Ontology { return g.ontology }

// AddEntity registers an entity. The Key must be unique; re-adding an
// existing key returns the existing ID without modifying the record.
func (g *Graph) AddEntity(e Entity) (EntityID, error) {
	if e.Key == "" {
		return NoEntity, fmt.Errorf("kg: entity key must be non-empty")
	}
	g.dictMu.Lock()
	defer g.dictMu.Unlock()
	if id, ok := g.entByKey[e.Key]; ok {
		return id, nil
	}
	id := EntityID(len(g.entities))
	e.ID = id
	stored := e
	g.entities = append(g.entities, &stored)
	g.entByKey[e.Key] = id
	g.entLen.Store(int64(len(g.entities)))
	return id, nil
}

// Entity returns the entity record for id, or nil if unknown. The
// returned pointer must be treated as read-only and immutable: record
// updates (SetPopularity) replace the stored pointer with a fresh copy
// instead of mutating the record in place, so lock-free readers holding a
// previously returned pointer never observe a torn write — they simply
// keep reading the version they fetched.
func (g *Graph) Entity(id EntityID) *Entity {
	g.dictMu.RLock()
	defer g.dictMu.RUnlock()
	if int(id) >= len(g.entities) {
		return nil
	}
	return g.entities[id]
}

// EntityByKey resolves an external key to an entity record. The returned
// pointer carries the same read-only contract as Entity.
func (g *Graph) EntityByKey(key string) (*Entity, bool) {
	g.dictMu.RLock()
	defer g.dictMu.RUnlock()
	id, ok := g.entByKey[key]
	if !ok {
		return nil, false
	}
	return g.entities[id], true
}

// SetPopularity updates an entity's popularity prior. The stored record
// is replaced copy-on-write: pointers handed out before the update keep
// their old (fully consistent) view, which makes the update safe against
// readers that inspect entity records outside the graph lock.
func (g *Graph) SetPopularity(id EntityID, pop float64) {
	g.dictMu.Lock()
	defer g.dictMu.Unlock()
	if int(id) < len(g.entities) && g.entities[id] != nil {
		cp := *g.entities[id]
		cp.Popularity = pop
		g.entities[id] = &cp
		g.markEntityDirtyLocked(id)
	}
}

// markEntityDirtyLocked records that id's dictionary record changed in
// place. Callers must hold dictMu.
func (g *Graph) markEntityDirtyLocked(id EntityID) {
	if g.dirtyEnts == nil {
		g.dirtyEnts = make(map[EntityID]struct{})
	}
	g.dirtyEnts[id] = struct{}{}
}

// TakeDirtyEntities drains and returns the IDs of entities whose
// records were updated in place (SetPopularity / UpdateEntity) since
// the previous drain, sorted ascending. The WAL commit path calls this
// to persist record updates as log records; anyone else draining it
// would steal the WAL's durability signal, so there is at most one
// consumer per graph.
func (g *Graph) TakeDirtyEntities() []EntityID {
	g.dictMu.Lock()
	defer g.dictMu.Unlock()
	if len(g.dirtyEnts) == 0 {
		return nil
	}
	out := make([]EntityID, 0, len(g.dirtyEnts))
	for id := range g.dirtyEnts {
		out = append(out, id)
	}
	clear(g.dirtyEnts)
	slices.Sort(out)
	return out
}

// ReplaceEntity overwrites the stored record for e.ID with e (copy-on-
// write, like SetPopularity). It exists for WAL replay of record-update
// log records — AddEntity deliberately refuses to modify an existing
// key — and therefore does NOT mark the entity dirty: replaying a
// durable update must not re-enqueue it for the next commit. The ID
// must already be registered and the Key must match the registered one
// (identity is immutable).
func (g *Graph) ReplaceEntity(e Entity) error {
	g.dictMu.Lock()
	defer g.dictMu.Unlock()
	if int(e.ID) <= 0 || int(e.ID) >= len(g.entities) || g.entities[e.ID] == nil {
		return fmt.Errorf("kg: ReplaceEntity: unknown entity ID %d", e.ID)
	}
	if g.entities[e.ID].Key != e.Key {
		return fmt.Errorf("kg: ReplaceEntity: key %q does not match registered key %q for ID %d",
			e.Key, g.entities[e.ID].Key, e.ID)
	}
	stored := e
	g.entities[e.ID] = &stored
	return nil
}

// UpdateEntity applies fn to a private copy of the entity record (with
// Aliases and Types cloned, so fn may rewrite them freely) and replaces
// the stored record with the result — the copy-on-write counterpart of
// mutating the pointer Entity() hands out, which is forbidden because
// lock-free readers may hold it. ID and Key are identity and are restored
// after fn runs; to re-key an entity, add a new one. Returns false if id
// is unknown. fn must not retain the pointer or call back into the graph.
func (g *Graph) UpdateEntity(id EntityID, fn func(*Entity)) bool {
	g.dictMu.Lock()
	defer g.dictMu.Unlock()
	if int(id) >= len(g.entities) || g.entities[id] == nil {
		return false
	}
	cp := *g.entities[id]
	cp.Aliases = slices.Clone(cp.Aliases)
	cp.Types = slices.Clone(cp.Types)
	fn(&cp)
	cp.ID = id
	cp.Key = g.entities[id].Key
	g.entities[id] = &cp
	g.markEntityDirtyLocked(id)
	return true
}

// AddPredicate registers a predicate, returning the existing ID if the name
// is already registered.
func (g *Graph) AddPredicate(p Predicate) (PredicateID, error) {
	if p.Name == "" {
		return NoPredicate, fmt.Errorf("kg: predicate name must be non-empty")
	}
	g.dictMu.Lock()
	defer g.dictMu.Unlock()
	if id, ok := g.predByName[p.Name]; ok {
		return id, nil
	}
	id := PredicateID(len(g.predicates))
	p.ID = id
	stored := p
	g.predicates = append(g.predicates, &stored)
	g.predByName[p.Name] = id
	g.predLen.Store(int64(len(g.predicates)))
	return id, nil
}

// Predicate returns the predicate record for id, or nil if unknown.
func (g *Graph) Predicate(id PredicateID) *Predicate {
	g.dictMu.RLock()
	defer g.dictMu.RUnlock()
	if int(id) >= len(g.predicates) {
		return nil
	}
	return g.predicates[id]
}

// PredicateByName resolves a predicate name.
func (g *Graph) PredicateByName(name string) (*Predicate, bool) {
	g.dictMu.RLock()
	defer g.dictMu.RUnlock()
	id, ok := g.predByName[name]
	if !ok {
		return nil, false
	}
	return g.predicates[id], true
}

// DictReader resolves external keys and predicate names, given as the
// bytes a request carried them in, to IDs without allocating. It is only
// valid inside the Graph.ReadDict call that supplied it.
type DictReader struct{ g *Graph }

// ReadDict runs fn with the dictionaries read-locked once, so a batch of
// lookups costs one lock round-trip instead of one per key. fn must only
// look up: it must not call back into the graph's dictionaries or block.
func (g *Graph) ReadDict(fn func(DictReader)) {
	g.dictMu.RLock()
	defer g.dictMu.RUnlock()
	fn(DictReader{g})
}

// EntityID resolves an entity key.
func (d DictReader) EntityID(key []byte) (EntityID, bool) {
	id, ok := d.g.entByKey[string(key)]
	return id, ok
}

// PredicateID resolves a predicate name.
func (d DictReader) PredicateID(name []byte) (PredicateID, bool) {
	id, ok := d.g.predByName[string(name)]
	return id, ok
}

// validate checks a triple's references against the atomically published
// dictionary lengths, and that every time it carries is one a row can
// hold (see TimeInRange). IDs are assigned densely and only ever grow, so
// an ID below a length observed now is guaranteed registered; the check
// never takes a lock.
func (g *Graph) validate(t Triple) error {
	if int64(t.Subject) >= g.entLen.Load() || t.Subject == NoEntity {
		return fmt.Errorf("kg: assert: unknown subject %v", t.Subject)
	}
	if int64(t.Predicate) >= g.predLen.Load() || t.Predicate == NoPredicate {
		return fmt.Errorf("kg: assert: unknown predicate %v", t.Predicate)
	}
	if t.Object.Kind == 0 {
		return fmt.Errorf("kg: assert: invalid object value")
	}
	if t.Object.IsEntity() && (int64(t.Object.Entity) >= g.entLen.Load() || t.Object.Entity == NoEntity) {
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
	sh := g.shard(t.Subject)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bySubj := sh.spo[t.Subject]
	i, dup := SearchRows(bySubj[t.Predicate], row.Key())
	if dup {
		return false, nil
	}
	if bySubj == nil {
		bySubj = make(map[PredicateID][]FactRow)
		sh.spo[t.Subject] = bySubj
	}
	bySubj[t.Predicate] = slices.Insert(bySubj[t.Predicate], i, row)
	g.indexNewFactLocked(sh, t.Subject, t.Predicate, row)
	return true, nil
}

// indexNewFactLocked finishes an assert whose row was just spliced into
// its spo fact list: the pom posting, the shard's fact count and the
// mutation log. The caller holds sh's write lock.
func (g *Graph) indexNewFactLocked(sh *graphShard, subj EntityID, pred PredicateID, row FactRow) {
	sh.triples++
	g.pomAdd(pred, row.Key(), subj)
	row.op = OpAssert
	sh.log.append(logEntry{seq: g.seq.Add(1), subj: subj, pred: pred, row: row})
}

// AssertAll adds a batch of triples. Unlike looped Assert calls, the whole
// batch is validated up front: if any triple is invalid, an error is
// returned and nothing is applied.
func (g *Graph) AssertAll(ts []Triple) error {
	_, err := g.AssertBatch(ts)
	return err
}

// AssertBatch is the batch ingestion fast path: it validates every triple
// up front (applying nothing on error), orders the batch by (subject,
// predicate, object identity), and applies it one subject at a time —
// one shard lock acquisition per subject, index slices grown once per
// (subject, predicate) run. It returns the number of facts newly added —
// triples whose SPO identity already existed in the graph, or that repeat
// an identity earlier in the batch (first occurrence in input order
// wins), are skipped.
//
// Applying in ascending subject order is what keeps a bulk load cheap on
// the sorted indexes: fresh subjects reach every posting in ID order, so
// each insert lands at the tail instead of splicing mid-list. Input
// already sorted by SPO identity (the order AllTriples emits, i.e. what a
// disk restore or a sorted bulk load feeds back) is detected in O(n) and
// skips the O(n log n) comparison sort.
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
	for lo := 0; lo < len(order); {
		subj := keys[order[lo]].Subject
		hi := lo + 1
		for hi < len(order) && keys[order[hi]].Subject == subj {
			hi++
		}
		added += g.assertSubjectBatch(g.shard(subj), ts, keys, order[lo:hi])
		lo = hi
	}
	return added, nil
}

// assertSubjectBatch applies one subject's slice of a sorted batch under
// a single acquisition of its shard's lock.
func (g *Graph) assertSubjectBatch(sh *graphShard, ts []Triple, keys []TripleKey, order []int32) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	// Filter duplicates first — in-batch (adjacent after sorting) and
	// against the stored fact lists — so the grow sizes below are exact.
	// Compaction reuses order's backing array.
	subj := keys[order[0]].Subject
	bySubj := sh.spo[subj]
	kept := order[:0]
	for i, oi := range order {
		k := keys[oi]
		if i > 0 && k == keys[order[i-1]] {
			continue
		}
		if _, dup := SearchRows(bySubj[k.Predicate], k.Object); dup {
			continue
		}
		kept = append(kept, oi)
	}
	if len(kept) == 0 {
		return 0
	}
	if bySubj == nil {
		bySubj = make(map[PredicateID][]FactRow)
		sh.spo[subj] = bySubj
	}
	for i := 0; i < len(kept); {
		pred := keys[kept[i]].Predicate
		j := i + 1
		for j < len(kept) && keys[kept[j]].Predicate == pred {
			j++
		}
		// The run is sorted by object key like the list it merges into; a
		// load into an empty list (restore, bulk import) inserts at the tail.
		lst := slices.Grow(bySubj[pred], j-i)
		for _, oi := range kept[i:j] {
			row := rowOf(keys[oi].Object, ts[oi].Prov)
			at, _ := SearchRows(lst, keys[oi].Object)
			lst = slices.Insert(lst, at, row)
			g.indexNewFactLocked(sh, subj, pred, row)
		}
		bySubj[pred] = lst
		i = j
	}
	return len(kept)
}

// Retract removes the fact with the same SPO identity as t, if present,
// and appends an OpRetract mutation carrying t. It reports whether a fact
// was removed.
func (g *Graph) Retract(t Triple) bool {
	key := t.Object.MapKey()
	sh := g.shard(t.Subject)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bySubj := sh.spo[t.Subject]
	lst := bySubj[t.Predicate]
	i, ok := SearchRows(lst, key)
	if !ok {
		return false
	}
	if len(lst) > 1 {
		bySubj[t.Predicate] = slices.Delete(lst, i, i+1)
	} else {
		delete(bySubj, t.Predicate)
		if len(bySubj) == 0 {
			delete(sh.spo, t.Subject)
		}
	}
	sh.triples--
	g.pomRemove(t.Predicate, key, t.Subject)

	row := rowOf(key, t.Prov)
	row.op = OpRetract
	sh.log.append(logEntry{seq: g.seq.Add(1), subj: t.Subject, pred: t.Predicate, row: row})
	return true
}

// Facts returns all triples with the given subject and predicate, in
// object-key order.
func (g *Graph) Facts(subj EntityID, pred PredicateID) []Triple {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rows := sh.spo[subj][pred]
	if rows == nil {
		return nil
	}
	out := make([]Triple, len(rows))
	for i := range rows {
		rows[i].fill(&out[i], subj, pred)
	}
	return out
}

// FactsFunc streams the (subj, pred) triples to fn in object-key order
// under the subject shard's read lock, stopping early if fn returns
// false. It is the allocation-free counterpart of Facts for callers that
// filter or aggregate and would discard the slice. fn must not mutate the
// graph or read its triple indexes; it may read the dictionaries (see
// Visitor callbacks on Graph).
func (g *Graph) FactsFunc(subj EntityID, pred PredicateID, fn func(Triple) bool) {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rows := sh.spo[subj][pred]
	var t Triple
	for i := range rows {
		rows[i].fill(&t, subj, pred)
		if !fn(t) {
			return
		}
	}
}

// FactsChunked streams the (subj, pred) triples to fn in object-key
// order, in chunks of at most chunkSize — the fact-list counterpart of
// the pom index's SubjectsWithChunked. Each chunk is copied out under one
// shard read-lock acquisition and fn runs with no locks held, so fn may
// read (or mutate) the graph and the lock hold time is bounded by
// chunkSize regardless of the fact list's length. fn returning false
// stops the enumeration; the chunk slice is reused across calls.
//
// Each chunk resumes at the first fact whose object key is greater than
// the last one delivered, so concurrent splices cannot shift the read:
// every fact present for the whole enumeration is delivered exactly once,
// and none is delivered twice.
func (g *Graph) FactsChunked(subj EntityID, pred PredicateID, chunkSize int, fn func(chunk []Triple) bool) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	sh := g.shard(subj)
	var (
		buf   []Triple
		after ValueKey // the zero key sorts before every fact's
	)
	for {
		sh.mu.RLock()
		rows := sh.spo[subj][pred]
		i, found := SearchRows(rows, after)
		if found {
			i++
		}
		end := min(i+chunkSize, len(rows))
		buf = slices.Grow(buf[:0], end-i)[:end-i]
		for j := range buf {
			rows[i+j].fill(&buf[j], subj, pred)
		}
		done := end == len(rows)
		sh.mu.RUnlock()
		if len(buf) == 0 || !fn(buf) || done {
			return
		}
		after = buf[len(buf)-1].Object.MapKey()
	}
}

// FactCount returns the number of (subj, pred, *) facts without
// materializing the fact slice: one shard read lock and two map lookups.
// It is the planner's bound-subject selectivity probe.
func (g *Graph) FactCount(subj EntityID, pred PredicateID) int {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	bySubj := sh.spo[subj]
	if bySubj == nil {
		return 0
	}
	return len(bySubj[pred])
}

// OutgoingFunc streams every triple whose subject is subj to fn under the
// subject shard's read lock, stopping early if fn returns false.
// Iteration order across predicates is unspecified; within one predicate
// it is object-key order. fn must not mutate the graph or read its triple
// indexes; it may read the dictionaries (see Visitor callbacks on Graph).
func (g *Graph) OutgoingFunc(subj EntityID, fn func(Triple) bool) {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var t Triple
	for pred, rows := range sh.spo[subj] {
		for i := range rows {
			rows[i].fill(&t, subj, pred)
			if !fn(t) {
				return
			}
		}
	}
}

// HasFact reports whether the exact fact (ignoring provenance) is asserted.
func (g *Graph) HasFact(subj EntityID, pred PredicateID, obj Value) bool {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := SearchRows(sh.spo[subj][pred], obj.MapKey())
	return ok
}

// NumEntities returns the number of registered entities.
func (g *Graph) NumEntities() int {
	return int(g.entLen.Load()) - 1
}

// NumPredicates returns the number of registered predicates.
func (g *Graph) NumPredicates() int {
	return int(g.predLen.Load()) - 1
}

// NumTriples returns the number of asserted facts, summed shard by shard.
func (g *Graph) NumTriples() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		n += sh.triples
		sh.mu.RUnlock()
	}
	return n
}

// TriplesSnapshot streams every asserted triple to fn in unspecified
// order, stopping early if fn returns false, and returns the mutation
// watermark the iteration reflects. Both happen under one all-shard
// read-lock acquisition, so derived structures (adjacency snapshots,
// views) get a consistent (triples, watermark) pair: the visited triples
// are exactly the state after the first `seq` mutations. fn must not
// mutate the graph or read its triple indexes; it may read the
// dictionaries (see Visitor callbacks on Graph).
func (g *Graph) TriplesSnapshot(fn func(Triple) bool) (seq uint64) {
	g.rlockAll()
	defer g.runlockAll()
	var t Triple
	for i := range g.shards {
		for subj, bySubj := range g.shards[i].spo {
			for pred, rows := range bySubj {
				for j := range rows {
					rows[j].fill(&t, subj, pred)
					if !fn(t) {
						return g.seq.Load()
					}
				}
			}
		}
	}
	return g.seq.Load()
}

// AllTriples materializes every asserted triple in identity order (by
// subject, then predicate, then object identity key — the fact lists'
// own order).
func (g *Graph) AllTriples() []Triple {
	g.rlockAll()
	defer g.runlockAll()
	return g.allTriplesLocked()
}

func (g *Graph) allTriplesLocked() []Triple {
	total := 0
	for i := range g.shards {
		total += g.shards[i].triples
	}
	out := make([]Triple, 0, total)
	var subjects []EntityID
	for i := range g.shards {
		for s := range g.shards[i].spo {
			subjects = append(subjects, s)
		}
	}
	slices.Sort(subjects)
	for _, s := range subjects {
		bySubj := g.shard(s).spo[s]
		preds := make([]PredicateID, 0, len(bySubj))
		for p := range bySubj {
			preds = append(preds, p)
		}
		slices.Sort(preds)
		for _, p := range preds {
			rows := bySubj[p] // already in object-key order
			n := len(out)
			out = slices.Grow(out, len(rows))[:n+len(rows)]
			for i := range rows {
				rows[i].fill(&out[n+i], s, p)
			}
		}
	}
	return out
}

// Entities streams the records of every entity registered when it is
// called to fn, stopping early if fn returns false. The records come from
// a copy of the dictionary taken under its lock, and fn runs with no lock
// held: it may read the graph, dictionaries and triple indexes alike.
func (g *Graph) Entities(fn func(*Entity) bool) {
	g.dictMu.RLock()
	ents := slices.Clone(g.entities[1:])
	g.dictMu.RUnlock()
	for _, e := range ents {
		if !fn(e) {
			return
		}
	}
}

// Predicates streams the records of every predicate registered when it
// is called to fn, stopping early if fn returns false; like Entities, fn
// runs with no lock held.
func (g *Graph) Predicates(fn func(*Predicate) bool) {
	g.dictMu.RLock()
	preds := slices.Clone(g.predicates[1:])
	g.dictMu.RUnlock()
	for _, p := range preds {
		if !fn(p) {
			return
		}
	}
}

// appendMutationsSince appends the per-shard logs' entries with sequence
// numbers strictly greater than seq to dst as one ascending feed, under
// one all-shard cut: MutationsSince for a consumer that reuses a buffer.
//
// Sequence numbers are dense — every number drawn is logged on exactly
// one shard — so the entries past seq are the contiguous range
// first..last and each is placed at its offset from first: no comparison
// sort, no scratch. Only a pull racing TruncateLog (or starting below the
// floor) can see a range with holes, where some shards have dropped
// entries others still hold; the empty slots are then squeezed out, and
// the floor check every consumer makes rejects the batch.
func (g *Graph) appendMutationsSince(dst []Mutation, seq uint64) []Mutation {
	g.rlockAll()
	defer g.runlockAll()
	total := 0
	first, last := ^uint64(0), uint64(0)
	for i := range g.shards {
		log := &g.shards[i].log
		c, off := log.seek(seq)
		if c == len(log.chunks) {
			continue
		}
		first = min(first, log.chunks[c][off].seq)
		tail := log.chunks[len(log.chunks)-1]
		last = max(last, tail[len(tail)-1].seq)
		total -= off
		for _, chunk := range log.chunks[c:] {
			total += len(chunk)
		}
	}
	if total == 0 {
		return dst
	}
	span := int(last - first + 1)
	dst = slices.Grow(dst, span)
	out := dst[len(dst) : len(dst)+span]
	if span != total {
		clear(out)
	}
	for i := range g.shards {
		log := &g.shards[i].log
		c, off := log.seek(seq)
		for ; c < len(log.chunks); c, off = c+1, 0 {
			chunk := log.chunks[c][off:]
			for j := range chunk {
				chunk[j].fill(&out[chunk[j].seq-first])
			}
		}
	}
	if span != total {
		n := 0
		for i := range out {
			if out[i].Seq != 0 {
				out[n] = out[i]
				n++
			}
		}
		out = out[:n]
	}
	return dst[:len(dst)+len(out)]
}

// MutationsSince returns a copy of the mutation log entries with sequence
// numbers strictly greater than seq, in ascending sequence order, merged
// across the per-shard sub-logs under one consistent all-shard cut.
func (g *Graph) MutationsSince(seq uint64) []Mutation {
	return g.appendMutationsSince(nil, seq)
}

// LastSeq returns the sequence number of the most recent mutation. A bare
// atomic load: the mutation that owns the returned number may still be
// completing on its shard, so treat the value as a staleness hint; use
// TriplesSnapshot or MutationsSince for reads whose watermark must
// exactly match the observed state.
func (g *Graph) LastSeq() uint64 {
	return g.seq.Load()
}

// LogFloor returns the highest mutation sequence number that has been
// dropped from the in-memory log (0 when nothing was ever truncated).
// MutationsSince(seq) is a complete feed only when seq >= LogFloor();
// consumers maintaining derived state should pull, then re-check the
// floor, and rebuild from scratch when the floor has passed their
// watermark (the floor is raised before entries are dropped, so this
// ordering can never miss a truncation).
func (g *Graph) LogFloor() uint64 {
	return g.logFloor.Load()
}

// TruncateLog drops every mutation-log entry with sequence number at or
// below upTo and returns the number of entries dropped. It is the log
// compaction hook for durability: once the WAL has a durable copy of the
// prefix (a checkpoint at watermark upTo), the in-memory copy is dead
// weight in a long-running server. The floor (LogFloor) is raised first,
// then shards are compacted one at a time; concurrent writers are
// unaffected (their entries are strictly above upTo), and concurrent
// MutationsSince callers detect the truncation via the floor check
// described on LogFloor.
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
	for {
		cur := g.logFloor.Load()
		if cur >= upTo {
			break
		}
		if g.logFloor.CompareAndSwap(cur, upTo) {
			break
		}
	}
	dropped := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		dropped += sh.log.dropThrough(upTo)
		sh.mu.Unlock()
	}
	return dropped
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
	for i := range g.shards {
		g.shards[i].mu.Lock()
	}
	defer func() {
		for i := range g.shards {
			g.shards[i].mu.Unlock()
		}
	}()
	cur := g.seq.Load()
	if seq < cur {
		return fmt.Errorf("kg: AdvanceWatermark(%d) below current watermark %d", seq, cur)
	}
	// Floor first, then drop (same ordering contract as TruncateLog) —
	// though with every shard write-locked no reader can interleave.
	for {
		old := g.logFloor.Load()
		if old >= seq || g.logFloor.CompareAndSwap(old, seq) {
			break
		}
	}
	for i := range g.shards {
		g.shards[i].log = mutLog{}
	}
	g.seq.Store(seq)
	return nil
}

// AllTriplesSnapshot is AllTriples plus the mutation watermark the
// materialized slice reflects, both taken under one all-shard cut. It is
// the checkpoint read: the returned triples are exactly the state after
// the first seq mutations, in identity order — the order AssertBatch's
// merge-append restore path detects in O(n).
func (g *Graph) AllTriplesSnapshot() (ts []Triple, seq uint64) {
	g.rlockAll()
	defer g.runlockAll()
	return g.allTriplesLocked(), g.seq.Load()
}
