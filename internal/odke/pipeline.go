package odke

import (
	"errors"
	"fmt"
	"time"

	"saga/internal/annotate"
	"saga/internal/kg"
	"saga/internal/websearch"
)

// Pipeline wires the full ODKE loop of Fig 5: gap → query synthesis →
// Web search → per-document extraction (over semantic annotations) →
// corroborative fusion → KG write-back.
type Pipeline struct {
	graph      *kg.Graph
	search     *websearch.Index
	annotator  *annotate.Annotator
	extractors []Extractor
	fuser      Fuser

	// TopKDocs is how many search hits each query contributes; default 5.
	TopKDocs int
	// MinScore gates write-back; fused values scoring below it are
	// dropped. Default 0.5.
	MinScore float64
	// DurabilityBarrier, when set, is invoked once per Run after the
	// final batch has been flushed and indexes synced, with the graph's
	// mutation watermark at that point. The durability layer wires it to
	// wal.Manager.SyncToWatermark so a completed extraction run is
	// fsync-acknowledged before Run returns; a barrier error fails the
	// run (the facts are in memory but not yet durable).
	DurabilityBarrier func(watermark uint64) error
}

// NewPipeline constructs the ODKE pipeline.
func NewPipeline(g *kg.Graph, search *websearch.Index, annotator *annotate.Annotator, extractors []Extractor, fuser Fuser) (*Pipeline, error) {
	if g == nil || search == nil || annotator == nil || fuser == nil {
		return nil, errors.New("odke: nil pipeline component")
	}
	if len(extractors) == 0 {
		return nil, errors.New("odke: no extractors")
	}
	return &Pipeline{
		graph:      g,
		search:     search,
		annotator:  annotator,
		extractors: extractors,
		fuser:      fuser,
		TopKDocs:   5,
		MinScore:   0.5,
	}, nil
}

// GapOutcome records what happened to one gap.
type GapOutcome struct {
	Gap Gap
	// Queries issued for the gap.
	Queries []string
	// DocsRetrieved is the number of distinct documents examined.
	DocsRetrieved int
	// Candidates collected across extractors and documents.
	Candidates []CandidateFact
	// Fused is the winning value (valid when Filled).
	Fused FuseResult
	// Filled reports whether a fact was written to the KG.
	Filled bool
}

// Report summarizes a pipeline run.
type Report struct {
	Gaps     int
	Filled   int
	Outcomes []GapOutcome
	// FactsAdded is the number of triples asserted (≤ Filled only when
	// dedup drops repeats).
	FactsAdded int
}

// CollectCandidates runs retrieval and extraction for one gap without
// fusing or writing — exposed for fusion-training harnesses.
func (p *Pipeline) CollectCandidates(gap Gap) ([]CandidateFact, []string, int) {
	queries := SynthesizeQueries(p.graph, gap)
	seenDocs := make(map[string]bool)
	var cands []CandidateFact
	for _, q := range queries {
		for _, hit := range p.search.Search(q, p.TopKDocs) {
			if seenDocs[hit.Doc.ID] {
				continue
			}
			seenDocs[hit.Doc.ID] = true
			anns := p.annotator.Annotate(hit.Doc.Text)
			for _, x := range p.extractors {
				cands = append(cands, x.Extract(hit.Doc, anns, gap)...)
			}
		}
	}
	return cands, queries, len(seenDocs)
}

// Run executes the pipeline over the gaps, asserting fused facts into the
// graph. Stale gaps get their old value retracted before the new value is
// asserted.
//
// Fused write-backs are accumulated and flushed through the graph's batch
// ingestion path instead of asserted one lock round-trip at a time.
// Retrieval and extraction never read the gap slot's current facts, so
// deferring the asserts is observationally equivalent within a run — with
// one exception: a stale gap reads (and retracts) the slot's facts, so
// any pending writes are flushed first to preserve read-your-writes
// ordering when a run both fills and refreshes the same slot.
func (p *Pipeline) Run(gaps []Gap) (Report, error) {
	rep := Report{Gaps: len(gaps)}
	var pending []kg.Triple
	flush := func() error {
		added, err := p.graph.AssertBatch(pending)
		rep.FactsAdded += added
		pending = pending[:0]
		return err
	}
	for _, gap := range gaps {
		cands, queries, nDocs := p.CollectCandidates(gap)
		out := GapOutcome{Gap: gap, Queries: queries, DocsRetrieved: nDocs, Candidates: cands}
		fused, ok := Fuse(p.fuser, cands)
		if ok && fused.Score >= p.MinScore {
			out.Fused = fused
			out.Filled = true
			if gap.Kind == GapStale {
				if err := flush(); err != nil {
					return rep, fmt.Errorf("odke: assert fused facts: %w", err)
				}
				for _, old := range p.graph.Facts(gap.Subject, gap.Predicate) {
					p.graph.Retract(old)
				}
			}
			pending = append(pending, kg.Triple{
				Subject:   gap.Subject,
				Predicate: gap.Predicate,
				Object:    fused.Value,
				Prov: kg.Provenance{
					Source:        "odke:" + p.fuser.Name(),
					Confidence:    fused.Score,
					ObservedAt:    time.Now(),
					SourceQuality: fused.Group.Features(len(cands)).MeanQuality,
				},
			})
			rep.Filled++
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	if err := flush(); err != nil {
		return rep, fmt.Errorf("odke: assert fused facts: %w", err)
	}
	if p.DurabilityBarrier != nil {
		if err := p.DurabilityBarrier(p.graph.LastSeq()); err != nil {
			return rep, fmt.Errorf("odke: durability barrier: %w", err)
		}
	}
	return rep, nil
}

// Coverage computes, over a set of (subject, predicate) slots, the
// fraction that currently have at least one fact — the before/after
// metric of experiment E7.
func Coverage(g *kg.Graph, slots [][2]uint64) float64 {
	if len(slots) == 0 {
		return 0
	}
	var have int
	for _, s := range slots {
		if g.FactCount(kg.EntityID(s[0]), kg.PredicateID(s[1])) > 0 {
			have++
		}
	}
	return float64(have) / float64(len(slots))
}
