// Package odke implements Open Domain Knowledge Extraction (§4, Figs 5–6
// of the paper): profiling the KG for important missing and stale facts,
// synthesizing Web-search queries for each gap, extracting candidate
// facts from retrieved documents with heterogeneous extractors (rule-based
// over structured infoboxes, pattern-based over annotated text), and
// corroborating candidates with a trained fusion model before writing the
// winners back into the graph.
package odke

import (
	"sort"
	"time"

	"saga/internal/kg"
	"saga/internal/workload"
)

// GapKind classifies a knowledge gap.
type GapKind uint8

const (
	// GapMissing marks a fact slot with no value in the KG.
	GapMissing GapKind = iota + 1
	// GapStale marks a functional slot whose value is old or conflicted.
	GapStale
)

func (k GapKind) String() string {
	switch k {
	case GapMissing:
		return "missing"
	case GapStale:
		return "stale"
	default:
		return "unknown"
	}
}

// Gap is one identified coverage or freshness issue: the (subject,
// predicate) slot ODKE should fill, with a priority reflecting how much
// it matters (popular entities and frequently queried slots first).
type Gap struct {
	Subject   kg.EntityID
	Predicate kg.PredicateID
	Kind      GapKind
	// Priority orders gaps; higher = more important.
	Priority float64
	// Source records which detection path found the gap: "querylog",
	// "profile", or "trend".
	Source string
}

// ProfilerConfig configures FindGaps.
type ProfilerConfig struct {
	// CoverageThreshold: a predicate is "expected" for a type when at
	// least this fraction of same-typed entities carry it; entities
	// lacking an expected predicate are gaps. Default 0.5.
	CoverageThreshold float64
	// StaleAfter marks functional facts older than this as stale.
	// Zero disables staleness detection.
	StaleAfter time.Duration
	// Now anchors staleness checks; zero means time.Now().
	Now time.Time
	// MaxGaps caps the output (highest priority first). Zero = no cap.
	MaxGaps int
}

// FindGaps runs the paper's three detection paths: reactive query-log
// analysis (unanswered queries), proactive KG profiling (type-level
// coverage), and staleness checks on functional predicates.
func FindGaps(g *kg.Graph, queryLog []workload.QueryLogEntry, cfg ProfilerConfig) []Gap {
	if cfg.CoverageThreshold <= 0 || cfg.CoverageThreshold > 1 {
		cfg.CoverageThreshold = 0.5
	}
	now := cfg.Now
	if now.IsZero() {
		now = time.Now()
	}
	seen := make(map[[2]uint64]bool)
	var gaps []Gap
	addGap := func(gp Gap) {
		key := [2]uint64{uint64(gp.Subject), uint64(gp.Predicate)}
		if seen[key] {
			return
		}
		seen[key] = true
		gaps = append(gaps, gp)
	}

	// Path 1 — reactive: unanswered queries are direct evidence of
	// missing facts, weighted by how often they were asked.
	unansweredCount := make(map[[2]uint64]int)
	for _, q := range queryLog {
		if q.Answered {
			continue
		}
		unansweredCount[[2]uint64{uint64(q.Subject), uint64(q.Predicate)}]++
	}
	for key, n := range unansweredCount {
		subj := kg.EntityID(key[0])
		ent := g.Entity(subj)
		pop := 0.0
		if ent != nil {
			pop = ent.Popularity
		}
		addGap(Gap{
			Subject:   subj,
			Predicate: kg.PredicateID(key[1]),
			Kind:      GapMissing,
			Priority:  float64(n) + pop,
			Source:    "querylog",
		})
	}

	// Path 2 — proactive profiling: per exact entity type, compute
	// predicate coverage; flag entities missing expected predicates.
	type typeStats struct {
		entities []kg.EntityID
		predHas  map[kg.PredicateID]int
	}
	byType := make(map[kg.TypeID]*typeStats)
	g.Entities(func(e *kg.Entity) bool {
		for _, t := range e.Types {
			ts := byType[t]
			if ts == nil {
				ts = &typeStats{predHas: make(map[kg.PredicateID]int)}
				byType[t] = ts
			}
			ts.entities = append(ts.entities, e.ID)
		}
		return true
	})
	predsSeen := make(map[kg.PredicateID]bool)
	for _, ts := range byType {
		for _, id := range ts.entities {
			clear(predsSeen)
			g.OutgoingFunc(id, func(tr kg.Triple) bool {
				if !predsSeen[tr.Predicate] {
					predsSeen[tr.Predicate] = true
					ts.predHas[tr.Predicate]++
				}
				return true
			})
		}
	}
	for _, ts := range byType {
		n := len(ts.entities)
		if n < 2 {
			continue
		}
		for pred, have := range ts.predHas {
			if float64(have)/float64(n) < cfg.CoverageThreshold {
				continue // not an expected predicate for this type
			}
			for _, id := range ts.entities {
				if g.FactCount(id, pred) > 0 {
					continue
				}
				ent := g.Entity(id)
				pop := 0.0
				if ent != nil {
					pop = ent.Popularity
				}
				addGap(Gap{
					Subject:   id,
					Predicate: pred,
					Kind:      GapMissing,
					Priority:  pop,
					Source:    "profile",
				})
			}
		}
	}

	// Path 3 — staleness: functional predicates whose newest observation
	// is too old (someone's marital status or net worth "may change over
	// time", §4).
	if cfg.StaleAfter > 0 {
		g.Entities(func(e *kg.Entity) bool {
			// Stream the outgoing facts instead of materializing the full
			// per-entity slice: the profiler only inspects each triple's
			// predicate record (a dictionary read, which a visitor allows)
			// and provenance timestamp.
			g.OutgoingFunc(e.ID, func(tr kg.Triple) bool {
				p := g.Predicate(tr.Predicate)
				if p == nil || !p.Functional {
					return true
				}
				if !tr.Prov.ObservedAt.IsZero() && now.Sub(tr.Prov.ObservedAt) > cfg.StaleAfter {
					addGap(Gap{
						Subject:   e.ID,
						Predicate: tr.Predicate,
						Kind:      GapStale,
						Priority:  e.Popularity,
						Source:    "profile",
					})
				}
				return true
			})
			return true
		})
	}

	sort.Slice(gaps, func(i, j int) bool {
		if gaps[i].Priority != gaps[j].Priority {
			return gaps[i].Priority > gaps[j].Priority
		}
		if gaps[i].Subject != gaps[j].Subject {
			return gaps[i].Subject < gaps[j].Subject
		}
		return gaps[i].Predicate < gaps[j].Predicate
	})
	if cfg.MaxGaps > 0 && len(gaps) > cfg.MaxGaps {
		gaps = gaps[:cfg.MaxGaps]
	}
	return gaps
}
