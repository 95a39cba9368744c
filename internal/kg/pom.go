package kg

import (
	"slices"
	"sync"
)

// The predicate-major secondary index ("pom": predicate → object key →
// posting list of subjects). Any cross-subject probe — the bound-object
// clause of a conjunctive query, a selectivity estimate — would otherwise
// have to sweep every subject shard; the pom index holds the postings
// merged across shards, partitioned by predicate into fixed lock stripes,
// so one stripe read-lock answers the whole-graph question. Per-predicate
// totals ride along, making PredicateFrequency and the planner's cost
// estimates O(1) count lookups instead of shard sweeps or slice builds.
//
// # The sorted-posting invariant
//
// A (pred, obj) posting is a []EntityID in ascending subject-ID order
// with no duplicates (the graph dedups SPO identity, and a subject is
// owned by one shard, so two writers never race on one slot). The order
// is a function of the facts alone: whatever the shard count, the writer
// interleaving, or the retract/re-assert history, two graphs holding the
// same facts hold byte-identical postings — which is what lets a
// checkpoint-recovered graph, an as-of overlay and the live graph stream
// the same rows in the same order. Add and remove are a binary search
// plus a splice; entity IDs are dense and grow monotonically, so bulk
// loads of fresh subjects append at the tail.
//
// # Locking and watermark contract
//
// Writers maintain the posting inline: the mutation takes its subject
// shard's write lock, then the predicate's stripe lock (strictly
// leaf-level — nothing is acquired inside it), applies, and releases.
// Readers take the stripe read lock alone and never a shard lock inside
// it. Because every stripe write happens under some shard write lock,
// the all-shard read lock (rlockAll) freezes the pom index: a consistent
// cut at watermark w observes postings reflecting exactly the first w
// mutations. A plain pom read is internally consistent for its
// predicate's stripe and as fresh as the moment the stripe lock was taken.
//
// # Key-resume chunked reads
//
// SubjectsWithChunked copies a posting out a chunk at a time and resumes
// each chunk at the first subject greater than the last one delivered —
// by key, never by offset — so concurrent splices cannot shift it: the
// delivered subjects are strictly ascending, every subject present for
// the whole enumeration is delivered exactly once, and none is delivered
// twice. Graph.FactsChunked gives fact lists the same guarantee.

// pomStripeCount is the number of predicate lock stripes. Predicates are
// few (hundreds, not millions); 64 stripes keeps writer collisions on
// distinct predicates rare while bounding the fixed per-graph footprint.
const pomStripeCount = 64

// predPostings holds one predicate's postings and counters.
type predPostings struct {
	// objs maps object identity -> the sorted posting of subjects
	// asserting (pred, obj).
	objs map[ValueKey][]EntityID
	// total is the number of (pred, *) triples; entityTotal the subset
	// whose object is an entity.
	total       int
	entityTotal int
}

// pomStripe guards the postings of the predicates hashing to the stripe.
// The trailing pad keeps neighboring stripes' mutexes off one cache line.
type pomStripe struct {
	mu    sync.RWMutex
	preds map[PredicateID]*predPostings

	_ [96]byte // pad to 128 bytes
}

func (g *Graph) pomStripe(pred PredicateID) *pomStripe {
	return &g.pom[uint32(pred)&(pomStripeCount-1)]
}

// pomAdd inserts subj into the (pred, obj) posting. The caller holds
// subj's shard write lock and has established the fact is new.
func (g *Graph) pomAdd(pred PredicateID, obj ValueKey, subj EntityID) {
	st := g.pomStripe(pred)
	st.mu.Lock()
	defer st.mu.Unlock()
	pp := st.preds[pred]
	if pp == nil {
		pp = &predPostings{objs: make(map[ValueKey][]EntityID)}
		st.preds[pred] = pp
	}
	p := pp.objs[obj]
	i, _ := slices.BinarySearch(p, subj)
	pp.objs[obj] = slices.Insert(p, i, subj)
	pp.total++
	if obj.Kind == KindEntity {
		pp.entityTotal++
	}
}

// pomRemove deletes subj from the (pred, obj) posting. The caller holds
// subj's shard write lock and has established the fact was present.
func (g *Graph) pomRemove(pred PredicateID, obj ValueKey, subj EntityID) {
	st := g.pomStripe(pred)
	st.mu.Lock()
	defer st.mu.Unlock()
	pp := st.preds[pred]
	p := pp.objs[obj]
	if i, ok := slices.BinarySearch(p, subj); ok {
		if len(p) == 1 {
			delete(pp.objs, obj)
		} else {
			pp.objs[obj] = slices.Delete(p, i, i+1)
		}
	}
	pp.total--
	if obj.Kind == KindEntity {
		pp.entityTotal--
	}
	if pp.total == 0 {
		delete(st.preds, pred)
	}
}

// posting returns the (pred, obj) posting. The caller holds the stripe
// lock.
func (st *pomStripe) posting(pred PredicateID, obj ValueKey) []EntityID {
	if pp := st.preds[pred]; pp != nil {
		return pp.objs[obj]
	}
	return nil
}

// SyncIndexes is a no-op: the predicate-major index is maintained inline
// with every mutation, so there is never deferred work to apply. It is
// kept because the benchmark harness (bench/trace.go) still calls it.
func (g *Graph) SyncIndexes() {}

// SubjectsWithFunc streams the subjects carrying (pred, obj) facts to fn
// in ascending ID order under the stripe read lock — one consistent point
// for the whole predicate — stopping early if fn returns false. fn must
// not mutate the graph or read its triple indexes; it may read the
// dictionaries (see Visitor callbacks on Graph).
func (g *Graph) SubjectsWithFunc(pred PredicateID, obj Value, fn func(EntityID) bool) {
	st := g.pomStripe(pred)
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, s := range st.posting(pred, obj.MapKey()) {
		if !fn(s) {
			return
		}
	}
}

// SubjectsWithChunked streams the subjects greater than after (NoEntity
// for all of them) carrying (pred, obj) facts to fn in ascending ID
// order, in chunks of at most chunkSize, copying each chunk out under one
// stripe read-lock acquisition and invoking fn with no locks held — the
// bounded-copy read for huge postings, where a limit=10 query should not
// pay a million-entry slab copy before its first row. fn may read or mutate the graph freely and stops the
// enumeration by returning false; the chunk slice is reused across calls
// and must not be retained.
//
// Each chunk resumes at the first subject greater than the last one
// delivered (see the package notes above): subjects present throughout
// are delivered exactly once, none twice; subjects asserted or retracted
// concurrently may or may not appear.
func (g *Graph) SubjectsWithChunked(pred PredicateID, obj Value, after EntityID, chunkSize int, fn func(chunk []EntityID) bool) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	st := g.pomStripe(pred)
	key := obj.MapKey()
	var buf []EntityID
	for {
		st.mu.RLock()
		p := st.posting(pred, key)
		i, found := slices.BinarySearch(p, after)
		if found {
			i++
		}
		end := min(i+chunkSize, len(p))
		if buf == nil {
			// Sized to the smaller of the chunk and the posting: a selective
			// query over an 8-subject posting must not pay a chunkSize-
			// capacity allocation.
			buf = make([]EntityID, 0, end-i)
		}
		buf = append(buf[:0], p[i:end]...)
		done := end == len(p)
		st.mu.RUnlock()
		if len(buf) == 0 || !fn(buf) || done {
			return
		}
		after = buf[len(buf)-1]
	}
}

// SubjectsWithCount returns the number of subjects carrying (pred, obj)
// facts without materializing the posting list. It is the planner's
// bound-object selectivity probe: one stripe read lock, two map lookups,
// zero allocations.
func (g *Graph) SubjectsWithCount(pred PredicateID, obj Value) int {
	st := g.pomStripe(pred)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.posting(pred, obj.MapKey()))
}

// PredicateFrequency returns the current number of triples using pred —
// an O(1) counter read from the predicate-major index, not a shard sweep.
func (g *Graph) PredicateFrequency(pred PredicateID) int {
	st := g.pomStripe(pred)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if pp := st.preds[pred]; pp != nil {
		return pp.total
	}
	return 0
}

// PredicateEntriesFunc streams every (object value, subject) pair indexed
// under pred to fn, stopping early if fn returns false. Object values are
// reconstructed from their identity keys, so provenance is not carried.
// Iteration order across objects is unspecified (map order); within one
// object it is ascending subject ID. fn runs under the stripe read lock:
// it must not mutate the graph or read its triple indexes; it may read
// the dictionaries (see Visitor callbacks on Graph).
func (g *Graph) PredicateEntriesFunc(pred PredicateID, fn func(obj Value, subj EntityID) bool) {
	st := g.pomStripe(pred)
	st.mu.RLock()
	defer st.mu.RUnlock()
	pp := st.preds[pred]
	if pp == nil {
		return
	}
	for key, p := range pp.objs {
		obj := key.Value()
		for _, s := range p {
			if !fn(obj, s) {
				return
			}
		}
	}
}
