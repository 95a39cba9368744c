// Package embedserve implements the Embedding Service of Fig 1: it serves
// trained KG embeddings for the four §2 applications — fact ranking, fact
// verification, related entities, and entity-linking support — and
// provides k-nearest-neighbour retrieval over entity vectors. Entity
// embeddings can be precomputed into a low-latency key-value store
// (paper §3.2: "we precompute entity embeddings ... and cache the results
// in a low-latency key-value store") so that serving only computes query
// embeddings.
package embedserve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"saga/internal/embedding"
	"saga/internal/kg"
	"saga/internal/storage"
	"saga/internal/vecindex"
)

// walkEmbeddings bundles the traversal-based related-entity vectors with
// their kNN index so both are installed and read as one unit: a reader
// that loads the pointer can never observe vectors from one installation
// paired with the index of another. gen totally orders installations
// (the model-embedding fallback is generation 0), letting the result
// cache tell a laggard request on a superseded installation apart from
// the first request on a fresh one.
type walkEmbeddings struct {
	vecs map[kg.EntityID]vecindex.Vector
	idx  *vecindex.FlatIndex
	gen  uint64
}

// Service serves one trained embedding model plus optional related-entity
// walk embeddings over a graph. Configuration installed after
// construction (walk embeddings, verification threshold) is published
// through atomic pointers, so SetWalkEmbeddings/SetVerifyThreshold are
// safe to call while RelatedEntities/VerifyFact serve traffic.
type Service struct {
	graph   *kg.Graph
	dataset *embedding.Dataset
	model   embedding.Model

	// entIndex holds model entity vectors keyed by graph entity ID.
	entIndex *vecindex.FlatIndex

	// walk holds the optional traversal-based related-entity embeddings,
	// installed atomically (nil until SetWalkEmbeddings); walkMu orders
	// installations so the generation a reader observes always matches
	// the latest published pointer. Readers never take the mutex.
	walk    atomic.Pointer[walkEmbeddings]
	walkMu  sync.Mutex
	walkGen uint64

	// verifyThreshold classifies triples in VerifyFact; nil until
	// calibrated via SetVerifyThreshold.
	verifyThreshold atomic.Pointer[float64]

	// relCache memoizes RelatedEntities results per (entity, k). Related-
	// entity queries are repetitive under production traffic (hot entities
	// dominate), and the answer is a pure function of the backing vector
	// index, so entries are valid exactly as long as the index the result
	// was computed from is unchanged: relGen/relIdx/relVersion record that
	// epoch (walk installation generation, index pointer, index version)
	// and a mismatch drops the whole cache (paper §3.2: "precompute ...
	// and cache the results in a low-latency key-value store").
	relMu      sync.RWMutex
	relCache   map[relCacheKey][]ScoredEntity
	relGen     uint64
	relIdx     *vecindex.FlatIndex
	relVersion uint64
}

// relCacheKey identifies one cached RelatedEntities result.
type relCacheKey struct {
	id kg.EntityID
	k  int
}

// relCacheMax bounds relCache. A full cache is dropped wholesale and
// rebuilt from live traffic — hot entities repopulate immediately, and
// the simple flush avoids per-entry LRU bookkeeping on the serving path.
const relCacheMax = 1 << 14

// New builds a service from a trained model and the dataset that defines
// its index space.
func New(g *kg.Graph, model embedding.Model, dataset *embedding.Dataset) (*Service, error) {
	if g == nil || model == nil || dataset == nil {
		return nil, errors.New("embedserve: nil graph, model, or dataset")
	}
	if len(dataset.Ents) == 0 || model.NumEntities() < len(dataset.Ents) {
		return nil, fmt.Errorf("embedserve: model has %d entities, dataset %d", model.NumEntities(), len(dataset.Ents))
	}
	// One copy of the entity matrix becomes the index's slab; a model
	// trained for a larger vocabulary (TrainInto) lends its leading rows.
	rows := model.EntityVectors()
	rows = rows[:len(rows)/model.NumEntities()*len(dataset.Ents)]
	ids := make([]uint64, len(dataset.Ents))
	for i, gid := range dataset.Ents {
		ids[i] = uint64(gid)
	}
	idx, err := vecindex.NewFlatFromRows(ids, rows)
	if err != nil {
		return nil, fmt.Errorf("embedserve: index entities: %w", err)
	}
	return &Service{graph: g, dataset: dataset, model: model, entIndex: idx}, nil
}

// SetWalkEmbeddings installs traversal-based related-entity vectors. The
// index is built first and the (vectors, index) pair is published with a
// single atomic store, so concurrent RelatedEntities callers see either
// the previous installation or the complete new one. The caller must not
// mutate vecs after handing it over.
func (s *Service) SetWalkEmbeddings(vecs map[kg.EntityID]vecindex.Vector) error {
	// Rows go in by ascending ID, not in map-iteration order, so the slab
	// layout is the same on every process start.
	ids := make([]uint64, 0, len(vecs))
	for id := range vecs {
		ids = append(ids, uint64(id))
	}
	slices.Sort(ids)
	idx := vecindex.NewFlat()
	if len(ids) > 0 {
		dim := len(vecs[kg.EntityID(ids[0])])
		rows := make([]float32, 0, len(ids)*dim)
		for _, id := range ids {
			v := vecs[kg.EntityID(id)]
			if len(v) != dim {
				return fmt.Errorf("embedserve: walk vector of %v has %d dims, want %d", kg.EntityID(id), len(v), dim)
			}
			rows = append(rows, v...)
		}
		var err error
		if idx, err = vecindex.NewFlatFromRows(ids, rows); err != nil {
			return err
		}
	}
	// Draw the generation and publish under one lock: two concurrent
	// installers must publish in generation order, or the later-drawn
	// generation could be overwritten by the earlier one and silently
	// lost.
	s.walkMu.Lock()
	s.walkGen++
	s.walk.Store(&walkEmbeddings{vecs: vecs, idx: idx, gen: s.walkGen})
	s.walkMu.Unlock()
	return nil
}

// SetVerifyThreshold installs a calibrated fact-verification threshold.
// Safe to call while VerifyFact serves traffic.
func (s *Service) SetVerifyThreshold(thr float64) {
	s.verifyThreshold.Store(&thr)
}

// EntityEmbedding returns the model embedding of a graph entity.
func (s *Service) EntityEmbedding(id kg.EntityID) (vecindex.Vector, bool) {
	v, ok := s.entIndex.Get(uint64(id))
	return v, ok
}

// RankedFact is a fact with its model plausibility score.
type RankedFact struct {
	Triple kg.Triple
	Score  float64
}

// RankFacts ranks the existing facts (subject, predicate, *) by model
// score, most plausible first — the Fig 2 fact-ranking application ("LeBron
// James, Occupation, ?" → Basketball Player before Screenwriter).
func (s *Service) RankFacts(subject kg.EntityID, predicate kg.PredicateID) ([]RankedFact, error) {
	return s.RankFactsContext(context.Background(), subject, predicate)
}

// RankFactsContext is RankFacts with cancellation: the scoring loop
// checks ctx periodically so a disconnected serving client stops burning
// model inference. Candidate facts stream off the graph's index (only
// entity-valued facts in the embedding space are kept) instead of copying
// the whole fact slice first; scoring runs after the index lock is
// released.
func (s *Service) RankFactsContext(ctx context.Context, subject kg.EntityID, predicate kg.PredicateID) ([]RankedFact, error) {
	h, ok := s.dataset.EntityIndex(subject)
	if !ok {
		return nil, fmt.Errorf("embedserve: subject %v not in embedding space", subject)
	}
	r, ok := s.dataset.RelationIndex(predicate)
	if !ok {
		return nil, fmt.Errorf("embedserve: predicate %v not in embedding space", predicate)
	}
	type candidate struct {
		t    kg.Triple
		tIdx int32
	}
	// The count is a capacity hint only (a writer may land between the two
	// lock acquisitions); the streamed read below is the enumeration.
	cands := make([]candidate, 0, s.graph.FactCount(subject, predicate))
	s.graph.FactsFunc(subject, predicate, func(f kg.Triple) bool {
		if !f.Object.IsEntity() {
			return true
		}
		if tIdx, ok := s.dataset.EntityIndex(f.Object.Entity); ok {
			cands = append(cands, candidate{t: f, tIdx: tIdx})
		}
		return true
	})
	cancellable := ctx.Done() != nil
	out := make([]RankedFact, 0, len(cands))
	for i, c := range cands {
		if cancellable && i&255 == 255 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out = append(out, RankedFact{Triple: c.t, Score: s.model.Score(h, r, c.tIdx)})
	}
	if cancellable {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Triple.Object.MapKey().Compare(out[j].Triple.Object.MapKey()) < 0
	})
	return out, nil
}

// Verification is the result of VerifyFact.
type Verification struct {
	Plausible bool
	Score     float64
	Threshold float64
}

// VerifyFact scores a candidate triple and classifies it against the
// calibrated threshold — the Fig 2 fact-verification application.
func (s *Service) VerifyFact(subject kg.EntityID, predicate kg.PredicateID, object kg.EntityID) (Verification, error) {
	thr := s.verifyThreshold.Load()
	if thr == nil {
		return Verification{}, errors.New("embedserve: verification threshold not calibrated; call SetVerifyThreshold")
	}
	h, ok := s.dataset.EntityIndex(subject)
	if !ok {
		return Verification{}, fmt.Errorf("embedserve: subject %v not in embedding space", subject)
	}
	r, ok := s.dataset.RelationIndex(predicate)
	if !ok {
		return Verification{}, fmt.Errorf("embedserve: predicate %v not in embedding space", predicate)
	}
	t, ok := s.dataset.EntityIndex(object)
	if !ok {
		return Verification{}, fmt.Errorf("embedserve: object %v not in embedding space", object)
	}
	score := s.model.Score(h, r, t)
	return Verification{Plausible: score >= *thr, Score: score, Threshold: *thr}, nil
}

// ScoredEntity pairs a graph entity with a similarity score.
type ScoredEntity struct {
	ID    kg.EntityID
	Score float64
}

// RelatedEntities returns the k entities most related to id — the Fig 2
// related-entities application. It prefers the traversal-based walk
// embeddings when installed (the paper's specialized related-entity path)
// and falls back to model-embedding kNN ranked by cosine similarity, so
// the fallback's scores are the cosines of the two entities' embeddings
// instead of mixing a normalized query with unnormalized stored vectors.
func (s *Service) RelatedEntities(id kg.EntityID, k int) ([]ScoredEntity, error) {
	return s.RelatedEntitiesContext(context.Background(), id, k)
}

// RelatedEntitiesContext is RelatedEntities with cancellation: the kNN
// scan polls ctx once per block of rows, so a disconnected client's scan
// stops within a block, and an abandoned scan returns ctx's error and
// caches nothing.
func (s *Service) RelatedEntitiesContext(ctx context.Context, id kg.EntityID, k int) ([]ScoredEntity, error) {
	// Load the walk installation once and use it consistently below: a
	// concurrent SetWalkEmbeddings must not swap the index out from under
	// the vector lookup.
	walk := s.walk.Load()
	idx := s.entIndex
	var gen uint64 // model-embedding fallback = generation 0
	if walk != nil {
		idx = walk.idx
		gen = walk.gen
	}
	ver := idx.Version()
	key := relCacheKey{id: id, k: k}
	s.relMu.RLock()
	if s.relGen == gen && s.relIdx == idx && s.relVersion == ver {
		if res, ok := s.relCache[key]; ok {
			s.relMu.RUnlock()
			return append([]ScoredEntity(nil), res...), nil
		}
	}
	s.relMu.RUnlock()

	keep := func(cand uint64) bool { return cand != uint64(id) }
	var res []vecindex.Result
	var err error
	if walk != nil {
		v, ok := walk.vecs[id]
		if !ok {
			return nil, fmt.Errorf("embedserve: entity %v has no walk embedding", id)
		}
		// Walk vectors are unit-normalized at training time, so inner
		// product already equals cosine here.
		res, err = walk.idx.SearchFiltered(ctx, v, k+1, keep)
	} else {
		var ok bool
		res, ok, err = s.entIndex.SearchCosineByID(ctx, uint64(id), k+1, keep)
		if !ok {
			return nil, fmt.Errorf("embedserve: entity %v not in embedding space", id)
		}
	}
	if err != nil {
		return nil, err
	}
	out := toScored(res, k)

	s.relMu.Lock()
	switch {
	case s.relGen == gen && s.relIdx == idx && s.relVersion == ver:
		if len(s.relCache) >= relCacheMax {
			s.relCache = make(map[relCacheKey][]ScoredEntity)
		}
		s.relCache[key] = out
	case s.relIdx == nil || s.relGen < gen || (s.relGen == gen && s.relIdx == idx && s.relVersion < ver):
		// Virgin cache, or our epoch is strictly newer than the resident
		// one (a later walk installation, or a later version of the same
		// index): install/replace.
		s.relCache = map[relCacheKey][]ScoredEntity{key: out}
		s.relGen = gen
		s.relIdx = idx
		s.relVersion = ver
	default:
		// The resident cache is from a newer epoch — a laggard request
		// computed against a superseded installation or index version
		// must not wipe fresh entries no future reader would match.
		// Drop our result.
	}
	s.relMu.Unlock()
	// Return a copy: callers may re-sort or truncate their result.
	return append([]ScoredEntity(nil), out...), nil
}

// NearestByVector returns the k entities nearest to an arbitrary query
// vector in the model embedding space — the entity-linking support
// primitive (query embedding vs cached entity embeddings, §3.2).
func (s *Service) NearestByVector(q vecindex.Vector, k int) []ScoredEntity {
	return toScored(s.entIndex.Search(q, k), k)
}

func toScored(res []vecindex.Result, k int) []ScoredEntity {
	out := make([]ScoredEntity, 0, min(k, len(res)))
	for _, r := range res {
		if len(out) == k {
			break
		}
		out = append(out, ScoredEntity{ID: kg.EntityID(r.ID), Score: float64(r.Score)})
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- Precomputed vector cache ------------------------------------------

// cacheKey formats the store key for an entity's cached vector.
func cacheKey(id kg.EntityID) string { return fmt.Sprintf("emb/%d", uint32(id)) }

// PrecomputeCache writes every entity's model embedding into the KV store.
func (s *Service) PrecomputeCache(store *storage.Store) (int, error) {
	n := 0
	for i, gid := range s.dataset.Ents {
		v := s.model.EntityVector(int32(i))
		if err := store.Put(cacheKey(gid), encodeVector(v)); err != nil {
			return n, err
		}
		n++
	}
	if err := store.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// LoadCachedVector reads one entity vector from the KV store.
func LoadCachedVector(store *storage.Store, id kg.EntityID) (vecindex.Vector, error) {
	data, err := store.Get(cacheKey(id))
	if err != nil {
		return nil, err
	}
	return decodeVector(data)
}

// NewFromCache rebuilds a service's entity index from cached vectors
// (model scoring APIs are unavailable; kNN and similarity work). It
// returns the restored index.
func NewFromCache(store *storage.Store) (*vecindex.FlatIndex, int, error) {
	idx := vecindex.NewFlat()
	n := 0
	err := store.Scan("emb/", func(key string, value []byte) bool {
		var id uint64
		if _, serr := fmt.Sscanf(key, "emb/%d", &id); serr != nil {
			return true
		}
		v, derr := decodeVector(value)
		if derr != nil {
			return true
		}
		if idx.Add(id, v) == nil {
			n++
		}
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	return idx, n, nil
}

func encodeVector(v vecindex.Vector) []byte {
	buf := make([]byte, 4+4*len(v))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(v)))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4+4*i:], math.Float32bits(x))
	}
	return buf
}

func decodeVector(data []byte) (vecindex.Vector, error) {
	if len(data) < 4 {
		return nil, errors.New("embedserve: cached vector too short")
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	// Compare in uint64: 4+4*n overflows uint32 for a corrupt header
	// (n ≥ 2^30), which could otherwise wrap to a small value, pass an
	// int-width check on 32-bit platforms, or drive a huge allocation.
	if uint64(len(data)-4) != 4*uint64(n) {
		return nil, fmt.Errorf("embedserve: cached vector length mismatch: header %d, payload %d bytes", n, len(data)-4)
	}
	v := make(vecindex.Vector, n)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4+4*i:]))
	}
	return v, nil
}
