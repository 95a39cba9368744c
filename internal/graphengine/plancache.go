package graphengine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// planCacheCapacity bounds the Engine's plan cache. Shapes are small
// (tens of bytes) and plans smaller, so the bound exists to cap an
// adversarial stream of distinct shapes, not memory pressure from
// ordinary workloads — real query mixes have a handful of shapes.
const planCacheCapacity = 256

// planCache memoizes Plans by query shape with LRU eviction. A hit
// skips planning entirely — no FactCount or SubjectsWithCount probes —
// after a cheap revalidation against the predicate counters (at most
// one PredicateFrequency read per distinct predicate in the query). A
// plan whose counters have drifted past the staleness rule (see
// Plan.stale) is rebuilt in place; the invalidation counts as a miss.
type planCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // of *planEntry; front = most recently used
	byShape map[string]*list.Element

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
}

type planEntry struct {
	shape string
	plan  *Plan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		lru:     list.New(),
		byShape: make(map[string]*list.Element),
	}
}

// plan returns the cached plan for the shape, building (or rebuilding)
// it when absent or stale. buildPlan runs outside the cache lock — it
// reads graph counters and may take a while on wide queries — so two
// concurrent misses on one shape may both build; last insert wins, which
// is harmless (the plans are equivalent).
func (pc *planCache) plan(g conjGraph, clauses []Clause, shape string) *Plan {
	pc.mu.Lock()
	if el, ok := pc.byShape[shape]; ok {
		p := el.Value.(*planEntry).plan
		if !p.stale(g) {
			pc.lru.MoveToFront(el)
			pc.mu.Unlock()
			pc.hits.Add(1)
			return p
		}
		pc.lru.Remove(el)
		delete(pc.byShape, shape)
		pc.invalidations.Add(1)
	}
	pc.mu.Unlock()
	pc.misses.Add(1)

	p := buildPlan(g, clauses, shape)

	pc.mu.Lock()
	if el, ok := pc.byShape[shape]; ok {
		// A concurrent build landed first; replace its plan (ours is
		// fresher or equivalent) without growing the list.
		el.Value.(*planEntry).plan = p
		pc.lru.MoveToFront(el)
	} else {
		pc.byShape[shape] = pc.lru.PushFront(&planEntry{shape: shape, plan: p})
		for pc.lru.Len() > pc.cap {
			oldest := pc.lru.Back()
			pc.lru.Remove(oldest)
			delete(pc.byShape, oldest.Value.(*planEntry).shape)
			pc.evictions.Add(1)
		}
	}
	pc.mu.Unlock()
	return p
}

// PlanCacheStats is a snapshot of the plan cache's counters: Hits are
// lookups served without planning, Misses include both cold lookups and
// Invalidations (stale plans rebuilt), Evictions count LRU drops at
// capacity, and Size is the current entry count.
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Size          int   `json:"size"`
}

func (pc *planCache) stats() PlanCacheStats {
	pc.mu.Lock()
	size := pc.lru.Len()
	pc.mu.Unlock()
	return PlanCacheStats{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Invalidations: pc.invalidations.Load(),
		Evictions:     pc.evictions.Load(),
		Size:          size,
	}
}
