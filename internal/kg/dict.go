package kg

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// dict is a graph's entity and predicate dictionaries and its
// ontology. All three only ever grow, so a graph made over another by
// NewGraphOver shares its lender's: an ID valid in one is valid in both.
//
// # Lock-free reads by ID
//
// The records sit in append-only tables (table) that a read by ID —
// Entity, Predicate, Entities, Predicates and assert validation — reads
// with atomic loads and no lock. Writers (AddEntity, AddPredicate,
// SetPopularity, ReplaceEntity, UpdateEntity) serialize on dictMu, which
// also guards the key and name maps and the dirty set, so a read by key
// or name (EntityByKey, PredicateByName, ReadDict) still takes its read
// lock.
//
// # Layout
//
// AddEntity stores each new record in a dictionary-owned chunk of
// records in ID order, so the records a posting walk or a join reads —
// in ascending ID order — sit in neighboring memory. A record replaced
// copy-on-write lives on the heap on its own.
type dict struct {
	ontology *Ontology

	// dictMu serializes the dictionaries' writers and guards entByKey,
	// predByName, the chunks being filled and dirtyEnts.
	dictMu     sync.RWMutex
	ents       table[Entity] // EntityID -> *Entity (ID 0 unused)
	preds      table[Predicate]
	entByKey   map[string]EntityID
	predByName map[string]PredicateID
	recs       []Entity // the record chunk AddEntity fills

	// dirtyEnts collects entity IDs whose records were updated in place
	// (SetPopularity / UpdateEntity) since the last TakeDirtyEntities
	// drain. Record updates do not flow through the mutation log — they
	// carry no sequence number — so the WAL drains this set instead to
	// make them durable between checkpoints. Allocated lazily on first
	// update.
	dirtyEnts map[EntityID]struct{}
}

func newDict() *dict {
	d := &dict{
		ontology:   NewOntology(),
		entByKey:   make(map[string]EntityID),
		predByName: make(map[string]PredicateID),
	}
	d.ents.init()
	d.preds.init()
	return d
}

// table is an append-only ID → record table whose readers take no lock.
// Slot i holds the current record of ID i. The writer stores a new
// record's slot before it publishes the length that covers it, and
// replaces a full slot array by a larger copy before it stores past the
// old one's end, so a reader that loads the length and then the slots
// finds every ID below that length filled. Writers hold dictMu.
type table[T any] struct {
	n     atomic.Int64 // the published length: IDs below it are registered
	slots atomic.Pointer[[]atomic.Pointer[T]]
}

// init publishes an empty table whose slot 0, the unassigned ID, is nil.
func (t *table[T]) init() {
	s := make([]atomic.Pointer[T], 8)
	t.slots.Store(&s)
	t.n.Store(1)
}

// len returns the published length, one more than the highest ID.
func (t *table[T]) len() int { return int(t.n.Load()) }

// get returns id's record, nil for an ID at or past the published
// length (and for ID 0).
func (t *table[T]) get(id uint32) *T {
	if int64(id) >= t.n.Load() {
		return nil
	}
	return (*t.slots.Load())[id].Load()
}

// each calls fn with the records of IDs 1 up to the length published at
// the call, stopping early if fn returns false.
func (t *table[T]) each(fn func(*T) bool) {
	n := t.n.Load()
	s := *t.slots.Load()
	for i := int64(1); i < n; i++ {
		if !fn(s[i].Load()) {
			return
		}
	}
}

// add stores r under the next ID, len(), and publishes it.
func (t *table[T]) add(r *T) {
	n := t.len()
	s := *t.slots.Load()
	if n == len(s) {
		grown := make([]atomic.Pointer[T], 2*n)
		for i := range s {
			grown[i].Store(s[i].Load())
		}
		t.slots.Store(&grown)
		s = grown
	}
	s[n].Store(r)
	t.n.Store(int64(n + 1))
}

// set replaces the record of a registered ID.
func (t *table[T]) set(id uint32, r *T) { (*t.slots.Load())[id].Store(r) }

// Record chunk bounds: a chunk is sized to what the dictionary already
// holds, within these limits, so a small graph stays small.
const minRecChunk, maxRecChunk = 16, 256

// newRecord returns a slot for the next entity's record in the chunk
// being filled, opening a new chunk when it is full. A slot is written
// once, before its ID is published, and never again.
func (d *dict) newRecord() *Entity {
	if len(d.recs) == cap(d.recs) {
		d.recs = make([]Entity, 0, min(max(d.ents.len(), minRecChunk), maxRecChunk))
	}
	d.recs = d.recs[:len(d.recs)+1]
	return &d.recs[len(d.recs)-1]
}

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
	e.ID = EntityID(g.ents.len())
	rec := g.newRecord()
	*rec = e
	g.ents.add(rec)
	g.entByKey[e.Key] = e.ID
	return e.ID, nil
}

// Entity returns the entity record for id, or nil if unknown. It takes
// no lock. The returned pointer must be treated as read-only and
// immutable: record updates (SetPopularity, UpdateEntity) replace the
// stored pointer with a fresh copy instead of mutating the record in
// place, so readers holding a previously returned pointer never observe
// a torn write — they simply keep reading the version they fetched.
func (g *Graph) Entity(id EntityID) *Entity { return g.ents.get(uint32(id)) }

// EntityByKey resolves an external key to an entity record. The returned
// pointer carries the same read-only contract as Entity.
func (g *Graph) EntityByKey(key string) (*Entity, bool) {
	g.dictMu.RLock()
	id, ok := g.entByKey[key]
	g.dictMu.RUnlock()
	if !ok {
		return nil, false
	}
	return g.Entity(id), true
}

// SetPopularity updates an entity's popularity prior. The stored record
// is replaced copy-on-write: pointers handed out before the update keep
// their old (fully consistent) view, which makes the update safe against
// readers that inspect entity records with no lock held.
func (g *Graph) SetPopularity(id EntityID, pop float64) {
	g.dictMu.Lock()
	defer g.dictMu.Unlock()
	if old := g.Entity(id); old != nil {
		cp := *old
		cp.Popularity = pop
		g.ents.set(uint32(id), &cp)
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
	old := g.Entity(e.ID)
	if old == nil {
		return fmt.Errorf("kg: ReplaceEntity: unknown entity ID %d", e.ID)
	}
	if old.Key != e.Key {
		return fmt.Errorf("kg: ReplaceEntity: key %q does not match registered key %q for ID %d",
			e.Key, old.Key, e.ID)
	}
	stored := e
	stored.Key = old.Key
	g.ents.set(uint32(e.ID), &stored)
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
	old := g.Entity(id)
	if old == nil {
		return false
	}
	cp := *old
	cp.Aliases = slices.Clone(cp.Aliases)
	cp.Types = slices.Clone(cp.Types)
	fn(&cp)
	cp.ID = id
	cp.Key = old.Key
	g.ents.set(uint32(id), &cp)
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
	p.ID = PredicateID(g.preds.len())
	stored := p
	g.preds.add(&stored)
	g.predByName[p.Name] = p.ID
	return p.ID, nil
}

// Predicate returns the predicate record for id, or nil if unknown. It
// takes no lock.
func (g *Graph) Predicate(id PredicateID) *Predicate { return g.preds.get(uint32(id)) }

// PredicateByName resolves a predicate name.
func (g *Graph) PredicateByName(name string) (*Predicate, bool) {
	g.dictMu.RLock()
	id, ok := g.predByName[name]
	g.dictMu.RUnlock()
	if !ok {
		return nil, false
	}
	return g.Predicate(id), true
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

// NumEntities returns the number of registered entities.
func (g *Graph) NumEntities() int { return g.ents.len() - 1 }

// NumPredicates returns the number of registered predicates.
func (g *Graph) NumPredicates() int { return g.preds.len() - 1 }

// Entities streams the records of every entity registered when it is
// called to fn, stopping early if fn returns false. It takes no lock,
// and fn may read the graph, dictionaries and triple indexes alike.
func (g *Graph) Entities(fn func(*Entity) bool) { g.ents.each(fn) }

// Predicates streams the records of every predicate registered when it
// is called to fn, stopping early if fn returns false; like Entities, it
// takes no lock.
func (g *Graph) Predicates(fn func(*Predicate) bool) { g.preds.each(fn) }
