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

// graphShard holds the delta and the mutation sub-log for the subjects
// whose ID is ≡ i mod S, S the shard count. Everything inside is guarded
// by the shard's own lock, so writers touching different shards never
// contend. The trailing pad keeps two shards' mutexes off one cache line.
type graphShard struct {
	mu sync.RWMutex

	// delta[subj] is what the writes since the last fold changed of
	// subj's facts: its rows sorted by (predicate, object key), each
	// with an op that says what it does to the base (see frozen.merge).
	// A subject the writes left as the base has it has no entry.
	delta map[EntityID][]FactRow
	spare spares[FactRow]

	// triples is the number of facts about the shard's subjects.
	triples int

	// log holds this shard's slice of the global mutation feed. Sequence
	// numbers are drawn from Graph.seq while the shard write lock is held,
	// so within one shard the log is strictly ascending in Seq.
	log mutLog

	// trimAt is the cursor at which the log's first chunk can be
	// dropped (mutLog.firstEnd), 0 for an empty log. It is stored under
	// the shard's write lock: by a trim, which also holds Graph.feedMu,
	// and by an append to a one-chunk log. A value left stale by
	// TruncateLog or AdvanceWatermark costs at most one needless trim.
	trimAt atomic.Uint64

	_ [64]byte // pad to 128 bytes so neighboring shard mutexes don't share a line
}

// setDelta stores subj's delta rows, dropping the entry once they drain.
func (sh *graphShard) setDelta(subj EntityID, rows []FactRow) {
	if len(rows) > 0 {
		sh.delta[subj] = rows
		return
	}
	sh.spare.give(rows)
	delete(sh.delta, subj)
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
// watermark semantics (TriplesSnapshot, AllTriples, a Changefeed's
// Pull), hold
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
//	delta: per shard, subject -> []FactRow          (the rows the writes
//	     since the base changed, sorted like the base's: a fact the base
//	     lacks, a base fact hidden (op OpRetract), or a base fact under
//	     another provenance (op OpAssert))
//	pom: per stripe, predicate -> the postings' delta (pom.go: the
//	     subjects each (predicate, object) gained and lost since the
//	     base, each list ascending, and the change in the totals)
//	log: per shard, chunks of 56-byte entries      (seq, subject,
//	     predicate and a FactRow whose op field holds the mutation's op;
//	     see mutlog.go)
//
// A read finds a (subject, predicate) list, or a (predicate, object)
// posting, by binary search in each layer and merges the two in key
// order (frozen.merge, posting.each), the way the as-of Overlay layers
// its fact sets over a graph. A bulk load into a graph that holds no
// fact — AssertBatch, the path of world generation, ImportGraph and
// checkpoint recovery — freezes its batch straight into the base. After
// that, once the delta holds more than a quarter of the base's facts
// (and more than foldFloor rows), the write that crossed the line folds
// it into a new base under every shard's and every stripe's write lock:
// the adjacency snapshot's rebuild rule, so the folds cost a write O(1)
// on average. Both build the base the one way (builder, sortPostings):
// the rows in identity order, then each predicate's postings
// radix-sorted on the object key. A base frozen from any update history,
// read through its delta, holds exactly what a graph built from scratch
// with the same facts holds. Layers reports the two layers' sizes and the folds.
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
// their shard counts, writer interleavings, folds or retract/re-assert
// histories, and so does a graph recovered from a checkpoint.
// Cross-subject probes (SubjectsWithFunc, SubjectsWithCount,
// PredicateFrequency, PredicateEntriesFunc) read one pom stripe instead
// of sweeping every shard; an entity's incoming edges under a known
// predicate are its posting.
//
// # Write path and lock order
//
// A mutation takes its subject shard's write lock, finds the fact in the
// subject's delta rows and, failing that, in its base rows by binary
// search (which is also the duplicate check), records the change in the
// delta, and then maintains the pom delta inline under the predicate's
// stripe lock — shard lock, then stripe lock, the stripe strictly
// leaf-level. Because every stripe write happens under a shard write
// lock, the all-shard read lock (rlockAll) freezes the pom index at the
// watermark exactly like the subject-major layers. A fold and a bulk
// load take every shard's write lock in index order and then every
// stripe's (lockAll), the same order.
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
// No strings are built on the Assert/Retract/HasFact paths. A subject's
// delta entry and a posting's delta list are deleted as they drain, and
// a fold empties the delta, so a long-lived graph under assert/retract
// churn does not leak them.
//
// # Mutation log and watermark semantics
//
// Every successful Assert/Retract draws a sequence number from one global
// atomic counter that increases by exactly 1 per applied mutation; the
// counter is only ever advanced while the mutating shard's write lock is
// held, so holding every shard's read lock freezes it. LastSeq()/
// TriplesSnapshot() expose the counter so derived structures
// (adjacency snapshots, checkpoints) can record the watermark they
// were built at and later decide staleness with a single comparison: a
// derived structure at watermark w reflects exactly the first w
// mutations. The log itself is stored as per-shard sub-logs of
// fixed-capacity chunks (mutlog.go); a Changefeed's Pull merges them
// by sequence number under the all-shard read lock, so consumers still
// see one totally ordered change feed.
// Registering entities or predicates does not bump the watermark — a new
// entity is observable in derived edge structures only once a triple
// mentions it, and asserting that triple bumps the watermark.
//
// The in-memory log keeps only what an open changefeed still needs:
// Feed registers a feed and Close unregisters it, and the log holds the
// entries above the smallest open cursor — none when no feed is open —
// trimmed a chunk at a time as feeds read on (and checked whenever a
// shard's last chunk fills). A feed may be bounded, so that it stops
// holding the log once it lags too far. TruncateLog, a test hook, drops a
// prefix whatever the feeds have read, and LogFloor reports the highest
// dropped sequence number. A read of the log past seq is complete only
// when seq >= LogFloor().
//
// Consumers read the log through a Changefeed (see changefeed.go), which
// packages the pull-then-recheck-floor protocol — pull a
// batch, verify LogFloor has not passed the cursor, advance — as a
// cursor-bearing handle with explicit floor/lag semantics and a single
// rematerialization fallback contract. The graphengine adjacency
// snapshot, the rules engine, the WAL drain, and live subscriptions all
// consume the log through it.
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
// a full checkpoint through AssertBatch's bulk load and applies
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
	// mutation sub-logs (retention, TruncateLog, AdvanceWatermark).
	// Entries at or below it are no longer retrievable via
	// a Changefeed. It is raised BEFORE any entry is dropped, so a
	// consumer that pulls mutations and then observes logFloor <= its
	// watermark is guaranteed a complete feed.
	logFloor atomic.Uint64

	// feedMu guards feeds, every open feed's cursor, and retention's
	// reading of them with the raise of logFloor that follows. A shard's
	// trim takes it under the shard's write lock: feedMu is leaf-level.
	feedMu sync.Mutex
	feeds  []*Changefeed

	shardMask uint32
	shards    []graphShard

	// pom holds the predicate-major index's delta (see pom.go).
	pom [pomStripeCount]pomStripe

	// base is the frozen layer (base.go). Only a fold or a bulk load
	// replaces it, under every shard's and every stripe's write lock, so
	// any one of those locks keeps it fixed.
	base   *frozen
	layers layerCounts
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
		base:       &frozen{},
	}
	g.entLen.Store(1)
	g.predLen.Store(1)
	for i := range g.shards {
		g.shards[i].delta = map[EntityID][]FactRow{}
	}
	for i := range g.pom {
		g.pom[i].preds = make(map[PredicateID]*predDelta)
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

// lockAll write-locks every shard, then every pom stripe: the cut under
// which the base is replaced.
func (g *Graph) lockAll() {
	for i := range g.shards {
		g.shards[i].mu.Lock()
	}
	for i := range g.pom {
		g.pom[i].mu.Lock()
	}
}

func (g *Graph) unlockAll() {
	for i := range g.pom {
		g.pom[i].mu.Unlock()
	}
	for i := range g.shards {
		g.shards[i].mu.Unlock()
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
	row.pred = t.Predicate
	sh := g.shard(t.Subject)
	sh.mu.Lock()
	added := g.addLocked(sh, t.Subject, row)
	sh.mu.Unlock()
	if added {
		g.maybeFold()
	}
	return added, nil
}

// addLocked adds subj's fact row, which carries its predicate and no op,
// unless the graph holds it, and reports whether it did. The delta takes
// it as a row the base lacks, or by undoing (or, under another
// provenance, replacing) its base row's removal; the pom posting, the
// fact count and the log follow. The caller holds sh's write lock.
func (g *Graph) addLocked(sh *graphShard, subj EntityID, row FactRow) bool {
	d, key := sh.delta[subj], row.Key()
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
			d = sh.spare.take()
		}
		d = slices.Insert(d, i, row)
		g.layers.adds.Add(1)
	}
	sh.setDelta(subj, d)
	sh.triples++
	g.pomEdit(row.pred, key, subj, true, inBase)
	pred := row.pred
	row.pred, row.op = 0, OpAssert
	g.logLocked(sh, subj, pred, row)
	return true
}

// logLocked appends a mutation to sh's log under a fresh sequence
// number. When the shard's last chunk is full it first drops the chunks
// every open feed has read: a trim per chunk, not per entry. The caller
// holds sh's write lock.
func (g *Graph) logLocked(sh *graphShard, subj EntityID, pred PredicateID, row FactRow) {
	if sh.log.full() {
		g.trimShardLocked(sh)
	}
	seq := g.seq.Add(1)
	sh.log.append(logEntry{seq: seq, subj: subj, pred: pred, row: row})
	if len(sh.log.chunks) == 1 {
		sh.trimAt.Store(seq)
	}
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
// one shard lock acquisition per subject. It returns the number of facts
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
		sh := g.shard(subj)
		sh.mu.Lock()
		for ; i < len(kept) && keys[kept[i]].Subject == subj; i++ {
			row := rowOf(keys[kept[i]].Object, ts[kept[i]].Prov)
			row.pred = keys[kept[i]].Predicate
			if g.addLocked(sh, subj, row) {
				added++
			}
		}
		sh.mu.Unlock()
	}
	g.maybeFold()
	return added, nil
}

// load freezes the deduplicated, sorted batch kept straight into a new
// base, logging each fact, when the graph holds no fact; it reports
// false, and does nothing, otherwise. A graph that holds facts is told
// from its layer counts, without a lock, so that a batch into it never
// waits for the all-shard cut.
func (g *Graph) load(ts []Triple, keys []TripleKey, kept []int32) bool {
	if g.layers.base.Load()+g.layers.adds.Load() > g.layers.dels.Load() {
		return false
	}
	g.lockAll()
	defer g.unlockAll()
	for i := range g.shards {
		if g.shards[i].triples > 0 {
			return false
		}
	}
	bl := newBuilder(len(kept))
	for _, oi := range kept {
		k := keys[oi]
		sh := g.shard(k.Subject)
		row := rowOf(k.Object, ts[oi].Prov)
		row.op = OpAssert
		g.logLocked(sh, k.Subject, k.Predicate, row)
		sh.triples++
		row.pred, row.op = k.Predicate, 0
		bl.add(k.Subject, row)
	}
	b := bl.seal()
	b.sortPostings()
	g.install(b)
	return true
}

// Retract removes the fact with the same SPO identity as t, if present,
// and appends an OpRetract mutation carrying t. It reports whether a fact
// was removed.
func (g *Graph) Retract(t Triple) bool {
	sh := g.shard(t.Subject)
	sh.mu.Lock()
	removed := g.removeLocked(sh, t)
	sh.mu.Unlock()
	if removed {
		g.maybeFold()
	}
	return removed
}

// removeLocked removes t's fact if the graph holds it, and reports
// whether it did: the delta drops the fact's added row, or hides its base
// row. The caller holds sh's write lock.
func (g *Graph) removeLocked(sh *graphShard, t Triple) bool {
	key := t.Object.MapKey()
	hide := FactRow{num: key.Num, str: key.Str, kind: key.Kind, op: OpRetract, pred: t.Predicate}
	d := sh.delta[t.Subject]
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
			d = sh.spare.take()
		}
		d = slices.Insert(d, i, hide)
		g.layers.dels.Add(1)
	}
	sh.setDelta(t.Subject, d)
	sh.triples--
	g.pomEdit(t.Predicate, key, t.Subject, false, inBase)
	row := rowOf(key, t.Prov)
	row.op = OpRetract
	g.logLocked(sh, t.Subject, t.Predicate, row)
	return true
}

// Facts returns all triples with the given subject and predicate, in
// object-key order.
func (g *Graph) Facts(subj EntityID, pred PredicateID) []Triple {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	base, delta := g.layersLocked(sh, subj, pred)
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
// under the subject shard's read lock, stopping early if fn returns
// false. It is the allocation-free counterpart of Facts for callers that
// filter or aggregate and would discard the slice. fn must not mutate the
// graph or read its triple indexes; it may read the dictionaries (see
// Visitor callbacks on Graph).
func (g *Graph) FactsFunc(subj EntityID, pred PredicateID, fn func(Triple) bool) {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	base, delta := g.layersLocked(sh, subj, pred)
	var t Triple
	g.base.merge(base, delta, func(r FactRow) bool {
		r.fill(&t, subj, pred)
		return fn(t)
	})
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
// the last one delivered, so neither a write nor a fold can shift the
// read: every fact present for the whole enumeration is delivered exactly
// once, and none is delivered twice.
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
		base, delta := g.layersLocked(sh, subj, pred)
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
		sh.mu.RUnlock()
		if len(buf) == 0 || !fn(buf) || done {
			return
		}
		after = buf[len(buf)-1].Object.MapKey()
	}
}

// FactCount returns the number of (subj, pred, *) facts without
// materializing the fact slice: one shard read lock and a few binary
// searches. It is the planner's bound-subject selectivity probe.
func (g *Graph) FactCount(subj EntityID, pred PredicateID) int {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return countRows(g.layersLocked(sh, subj, pred))
}

// layersLocked returns subj's facts under pred — under every predicate
// for NoPredicate — as its base rows and its delta rows (see
// frozen.merge). The caller holds sh's lock.
func (g *Graph) layersLocked(sh *graphShard, subj EntityID, pred PredicateID) ([]baseRow, []FactRow) {
	delta := sh.delta[subj]
	if pred != NoPredicate {
		i := lowerBound(delta, func(r FactRow) bool { return r.pred < pred })
		delta = delta[i : i+lowerBound(delta[i:], func(r FactRow) bool { return r.pred == pred })]
	}
	return g.base.subject(subj, pred), delta
}

// OutgoingFunc streams every triple whose subject is subj to fn under the
// subject shard's read lock, stopping early if fn returns false. The
// order is by predicate ID, then by object key. fn must not mutate the
// graph or read its triple indexes; it may read the dictionaries (see
// Visitor callbacks on Graph).
func (g *Graph) OutgoingFunc(subj EntityID, fn func(Triple) bool) {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	base, delta := g.layersLocked(sh, subj, NoPredicate)
	var t Triple
	g.base.merge(base, delta, func(r FactRow) bool {
		r.fill(&t, subj, r.pred)
		return fn(t)
	})
}

// HasFact reports whether the exact fact (ignoring provenance) is asserted.
func (g *Graph) HasFact(subj EntityID, pred PredicateID, obj Value) bool {
	sh := g.shard(subj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	base, delta := g.layersLocked(sh, subj, pred)
	key := obj.MapKey()
	if i, ok := SearchRows(delta, key); ok {
		return delta[i].op != OpRetract
	}
	_, ok := g.base.search(base, key)
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

// TriplesSnapshot streams every asserted triple to fn in identity order
// (by subject, then predicate ID, then object key), stopping early if fn
// returns false, and returns the mutation
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
	g.factsLocked(func(subj EntityID, r FactRow) bool {
		r.fill(&t, subj, r.pred)
		return fn(t)
	})
	return g.seq.Load()
}

// factsLocked calls fn with every fact in identity order, stopping early
// if fn returns false. The caller holds every shard's lock.
func (g *Graph) factsLocked(fn func(subj EntityID, r FactRow) bool) {
	for s := EntityID(1); int64(s) < g.entLen.Load(); s++ {
		base, delta := g.layersLocked(g.shard(s), s, NoPredicate)
		if !g.base.merge(base, delta, func(r FactRow) bool { return fn(s, r) }) {
			return
		}
	}
}

// AllTriples materializes every asserted triple in identity order (by
// subject, then predicate, then object identity key).
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
	g.factsLocked(func(subj EntityID, r FactRow) bool {
		out = out[:len(out)+1]
		r.fill(&out[len(out)-1], subj, r.pred)
		return true
	})
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
// one all-shard cut: the read behind a Changefeed's Pull.
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

// LastSeq returns the sequence number of the most recent mutation. A bare
// atomic load: the mutation that owns the returned number may still be
// completing on its shard, so treat the value as a staleness hint; use
// TriplesSnapshot or a Changefeed for reads whose watermark must
// exactly match the observed state.
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
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		n += sh.log.len()
		sh.mu.RUnlock()
	}
	return n
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
// shards are compacted one at a time, the chunk the cut lands in trimmed
// at its head; concurrent writers are unaffected (their entries are
// strictly above upTo), and concurrent log readers detect the
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
	g.lockAll()
	defer g.unlockAll()
	cur := g.seq.Load()
	if seq < cur {
		return fmt.Errorf("kg: AdvanceWatermark(%d) below current watermark %d", seq, cur)
	}
	// Floor first, then drop (same ordering contract as TruncateLog) —
	// though with every shard write-locked no reader can interleave.
	g.raiseFloor(seq)
	for i := range g.shards {
		g.shards[i].log = mutLog{}
	}
	g.seq.Store(seq)
	return nil
}

// AllTriplesSnapshot is AllTriples plus the mutation watermark the
// materialized slice reflects, both taken under one all-shard cut. It is
// the checkpoint read: the returned triples are exactly the state after
// the first seq mutations, in identity order — the order AssertBatch
// detects in O(n) and a bulk load freezes straight into a base.
func (g *Graph) AllTriplesSnapshot() (ts []Triple, seq uint64) {
	g.rlockAll()
	defer g.runlockAll()
	return g.allTriplesLocked(), g.seq.Load()
}
