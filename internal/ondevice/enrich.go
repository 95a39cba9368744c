package ondevice

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

// Global knowledge enrichment (§5): the personal graph is enriched with
// global knowledge through three paths with different privacy/cost
// trade-offs:
//
//  1. Static knowledge asset — a popularity-ranked subgraph shipped to
//     every device; zero request leakage, bounded size, maintained as a
//     graph-engine view.
//  2. Dynamic piggyback — global facts ride along on responses to server
//     interactions the user already makes; no extra leakage.
//  3. Private retrieval — PIR-style lookups whose simulated cost is a
//     full scan of the server corpus, plus differentially-private noisy
//     counting for aggregate queries; provable privacy at high cost,
//     reserved for high-value lookups.

// AssetEntry is one entity's payload inside the static knowledge asset.
type AssetEntry struct {
	Key        string
	Name       string
	Popularity float64
	// Facts are rendered (predicate, object) strings about the entity.
	Facts []string
}

// StaticAsset is the on-device popular-entity artifact.
type StaticAsset struct {
	Entries map[string]AssetEntry // by entity key
	// SourceSeq is the graph mutation sequence the asset was built at —
	// the changefeed cursor's position, exported so sync tooling can
	// compare asset versions across devices.
	SourceSeq uint64
	size      int
	view      *graphengine.View
	graph     *kg.Graph
	feed      *kg.Changefeed
	topK      int
}

// BuildStaticAsset materializes the top-k most popular global entities
// (with their facts) into a shippable asset. The view is maintained
// incrementally: call Refresh after the global graph changes.
func BuildStaticAsset(g *kg.Graph, topK int) (*StaticAsset, error) {
	if topK <= 0 {
		return nil, errors.New("ondevice: topK must be positive")
	}
	eng := graphengine.New(g)
	view := eng.Materialize(graphengine.ViewDef{})
	a := &StaticAsset{graph: g, view: view, feed: g.Feed(0), topK: topK}
	a.rebuild()
	return a, nil
}

func (a *StaticAsset) rebuild() {
	// Reset the feed to the watermark BEFORE scanning: a mutation that
	// lands mid-scan may or may not be reflected in the entries, so the
	// conservative cursor makes the next Refresh re-pull it rather than
	// silently skip it (resetting after the scan could mark unseen
	// mutations as consumed).
	seq := a.graph.LastSeq()
	var all []*kg.Entity
	a.graph.Entities(func(e *kg.Entity) bool {
		all = append(all, e)
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Popularity != all[j].Popularity {
			return all[i].Popularity > all[j].Popularity
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > a.topK {
		all = all[:a.topK]
	}
	entries := make(map[string]AssetEntry, len(all))
	var pvs []predValue
	for _, e := range all {
		entry := AssetEntry{Key: e.Key, Name: e.Name, Popularity: e.Popularity}
		pvs = collectOutgoing(a.graph, e.ID, pvs[:0])
		for _, pv := range pvs {
			p := a.graph.Predicate(pv.pred)
			if p == nil {
				continue
			}
			entry.Facts = append(entry.Facts, p.Name+"="+pv.obj.String())
		}
		sort.Strings(entry.Facts)
		entries[e.Key] = entry
	}
	a.Entries = entries
	a.feed.Reset(seq)
	a.SourceSeq = seq
	a.size = len(entries)
}

// Refresh incrementally applies graph changes since the asset was built
// ("as the set of popular entities changes over time, the view is
// automatically maintained and can be shipped to devices"). Returns the
// number of view mutations applied.
//
// Staleness is decided by the asset's changefeed: a non-empty (or
// incomplete, when compaction passed the cursor) pull means the graph
// moved past the asset's watermark and the entries are recomputed. The
// pulled batch itself is not replayed — rebuild re-ranks from the live
// dictionary anyway, which also picks up popularity changes that carry
// no mutation sequence.
func (a *StaticAsset) Refresh() int {
	applied := a.view.Refresh()
	muts, complete := a.feed.Pull()
	if applied > 0 || len(muts) > 0 || !complete {
		a.rebuild()
	}
	return applied
}

// Lookup serves a device query from the asset; no network request, no
// privacy leakage.
func (a *StaticAsset) Lookup(entityKey string) (AssetEntry, bool) {
	e, ok := a.Entries[entityKey]
	return e, ok
}

// Size returns the number of entities in the asset.
func (a *StaticAsset) Size() int { return a.size }

// --- Dynamic piggyback ---------------------------------------------------

// PiggybackCache accumulates global facts that rode along on the user's
// own server interactions.
type PiggybackCache struct {
	facts map[string][]string
}

// NewPiggybackCache returns an empty cache.
func NewPiggybackCache() *PiggybackCache {
	return &PiggybackCache{facts: make(map[string][]string)}
}

// ServerInteraction simulates the user asking the server about an entity
// (e.g. "what is the score in the Blue Jays game?"). The response
// piggybacks the entity's global facts, which the device caches. The
// request would have been made anyway, so no additional information
// about the user leaks.
func (c *PiggybackCache) ServerInteraction(g *kg.Graph, entityKey string) ([]string, bool) {
	e, ok := g.EntityByKey(entityKey)
	if !ok {
		return nil, false
	}
	var facts []string
	for _, pv := range collectOutgoing(g, e.ID, nil) {
		p := g.Predicate(pv.pred)
		if p == nil {
			continue
		}
		facts = append(facts, p.Name+"="+pv.obj.String())
	}
	sort.Strings(facts)
	c.facts[entityKey] = facts
	return facts, true
}

// predValue is the (predicate, object) projection of an outgoing fact —
// what the enrichment renderers actually consume. Collecting these via
// the graph's visitor path avoids copying full Triples (with provenance)
// per entity, and resolving predicate names after the visitor returns
// keeps predicate lookups off the held read lock.
type predValue struct {
	pred kg.PredicateID
	obj  kg.Value
}

// collectOutgoing appends entity id's outgoing (predicate, object) pairs
// to buf using the copy-free visitor read path, and returns it.
func collectOutgoing(g *kg.Graph, id kg.EntityID, buf []predValue) []predValue {
	g.OutgoingFunc(id, func(tr kg.Triple) bool {
		buf = append(buf, predValue{pred: tr.Predicate, obj: tr.Object})
		return true
	})
	return buf
}

// Lookup serves a cached entity.
func (c *PiggybackCache) Lookup(entityKey string) ([]string, bool) {
	f, ok := c.facts[entityKey]
	return f, ok
}

// Size returns the number of cached entities.
func (c *PiggybackCache) Size() int { return len(c.facts) }

// --- Private retrieval ---------------------------------------------------

// PIRServer simulates private information retrieval over a keyed corpus:
// answering one query costs a scan of the whole database (the defining
// cost of information-theoretic PIR — the server must touch every row or
// it learns which row was asked for). CostUnits accumulates rows scanned.
type PIRServer struct {
	rows      map[string][]string
	CostUnits int
}

// NewPIRServer indexes the global graph for PIR lookups.
func NewPIRServer(g *kg.Graph) *PIRServer {
	s := &PIRServer{rows: make(map[string][]string)}
	var pvs []predValue
	g.Entities(func(e *kg.Entity) bool {
		var facts []string
		pvs = collectOutgoing(g, e.ID, pvs[:0])
		for _, pv := range pvs {
			if p := g.Predicate(pv.pred); p != nil {
				facts = append(facts, p.Name+"="+pv.obj.String())
			}
		}
		sort.Strings(facts)
		s.rows[e.Key] = facts
		return true
	})
	return s
}

// Fetch privately retrieves one entity's facts. The simulated cost is
// |corpus| rows regardless of the key, which is what makes the paper
// reserve this path for "high-value use cases".
func (s *PIRServer) Fetch(entityKey string) ([]string, bool) {
	s.CostUnits += len(s.rows) // every row is touched
	f, ok := s.rows[entityKey]
	return f, ok
}

// NumRows returns the corpus size.
func (s *PIRServer) NumRows() int { return len(s.rows) }

// --- Differential privacy -------------------------------------------------

// DPNoisyCount returns count + Laplace(sensitivity/epsilon) noise: the
// standard ε-differentially-private release of a counting query, used for
// aggregate "knowledge queries" (§5's reference [7]).
func DPNoisyCount(count float64, sensitivity, epsilon float64, rng *rand.Rand) (float64, error) {
	if epsilon <= 0 {
		return 0, errors.New("ondevice: epsilon must be positive")
	}
	if sensitivity <= 0 {
		sensitivity = 1
	}
	scale := sensitivity / epsilon
	// Inverse-CDF Laplace sampling.
	u := rng.Float64() - 0.5
	noise := -scale * sign(u) * math.Log(1-2*math.Abs(u))
	return count + noise, nil
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
