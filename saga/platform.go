package saga

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"saga/internal/annotate"
	"saga/internal/embedding"
	"saga/internal/embedserve"
	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/odke"
	"saga/internal/rules"
	"saga/internal/wal"
	"saga/internal/websearch"
)

// Platform bundles a knowledge graph with the services built on it
// (Fig 1): the graph engine, the embedding service, the semantic
// annotation service, and the ODKE pipeline. Construct with New, then
// initialize the services you need:
//
//	p := saga.New(graph)
//	if err := p.TrainEmbeddings(saga.EmbeddingOptions{}); err != nil { ... }
//	if err := p.BuildAnnotator(saga.AnnotateConfig{}); err != nil { ... }
//	ranked, err := p.RankFacts(subject, predicate)
type Platform struct {
	graph  *kg.Graph
	engine *graphengine.Engine

	dataset   *embedding.Dataset
	model     embedding.Model
	embedSvc  *embedserve.Service
	annotator *annotate.Annotator
	odkePipe  *odke.Pipeline
	rules     *rules.Engine

	// wal is the durability manager, set by OpenDurablePlatform; nil for
	// memory-only platforms.
	wal *wal.Manager
}

// New wraps a graph in a platform. The graph may keep growing: queries
// read it live, and TrainEmbeddings trains on it as it is at the call.
func New(g *Graph) *Platform {
	return &Platform{graph: g, engine: graphengine.New(g)}
}

// Graph returns the underlying knowledge graph.
func (p *Platform) Graph() *Graph { return p.graph }

// Engine returns the graph query engine.
func (p *Platform) Engine() *Engine { return p.engine }

// QueryRows evaluates a conjunctive query as a stream of slot rows: rows
// yield as the join produces them (each once, in an order that is a
// function of the plan and the facts, not of how the facts arrived), a
// QueryOptions.Limit terminates the solve early, a Cursor seeks to just
// after a previous page's last row, and a cancelled Context aborts
// mid-join. A row's values are only valid until the next row is
// requested (see QueryRow). Errors yield as the final element. This is
// the serving-path query surface behind POST /query, and the stream
// every other conjunctive read is an adapter over.
func (p *Platform) QueryRows(clauses []QueryClause, opts QueryOptions) iter.Seq2[QueryRow, error] {
	return p.engine.StreamRows(clauses, opts)
}

// QueryStream is QueryRows with every row detached into a QueryBinding
// (one map per row), for consumers that keep rows or address values by
// variable name. Errors yield as the final (nil, err) element.
func (p *Platform) QueryStream(clauses []QueryClause, opts QueryOptions) iter.Seq2[QueryBinding, error] {
	return p.engine.StreamConjunctive(clauses, opts)
}

// PlanQuery validates a conjunctive query and returns its execution plan
// without running it — the explain surface behind POST /query. Plans come
// from the same cache QueryStream uses, so explaining a hot shape is a
// cache hit.
func (p *Platform) PlanQuery(clauses []QueryClause) (*QueryPlan, error) {
	return p.engine.PlanConjunctive(clauses)
}

// QueryPlanCacheStats snapshots the engine's plan-cache counters
// (hits, misses, invalidations, evictions, resident size).
func (p *Platform) QueryPlanCacheStats() QueryPlanCacheStats {
	return p.engine.PlanCacheStats()
}

// DefineRulesText installs a Datalog-style rule program (see
// internal/rules for the language): the program is parsed and validated
// against the graph (head predicates are created on demand), a rules
// engine runs the initial full derivation, its derived facts are layered
// over the graph on the query engine's read surface — derived predicates
// become queryable through every surface, POST /query included — and it
// keeps the fixpoint fresh against the graph's changefeed, feeding
// derived visibility changes into live subscriptions. Redefining replaces
// the previous program (its engine is stopped and detached first).
func (p *Platform) DefineRulesText(text string) error {
	rs, err := rules.ParseRules(p.graph, text)
	if err != nil {
		return err
	}
	eng, err := rules.New(p.engine, rs, rules.Options{OnDelta: p.engine.ApplyDerivedDeltas})
	if err != nil {
		return fmt.Errorf("saga: define rules: %w", err)
	}
	if p.rules != nil {
		p.rules.Close()
	}
	p.rules = eng
	p.engine.AttachDerived(eng.Derived())
	return nil
}

// Rules returns the rules engine, or nil before DefineRulesText.
func (p *Platform) Rules() *RulesEngine { return p.rules }

// RuleStats snapshots the rules engine's derived-store size and
// maintenance counters (zero value before DefineRulesText).
func (p *Platform) RuleStats() RuleEngineStats {
	if p.rules == nil {
		return RuleEngineStats{}
	}
	return p.rules.Stats()
}

// DeriveRequest names one in-graph analytics materialization.
type DeriveRequest struct {
	// Kind selects the algorithm: "components" (connected components of
	// the undirected entity graph), "sameas" (equivalence closure of
	// Source's facts), or "khop" (reachability within K hops of
	// SourceKeys).
	Kind string
	// Out is the output predicate name, created if missing. It must not
	// be a rule head.
	Out string
	// Source is the edge predicate name for Kind "sameas".
	Source string
	// SourceKeys are the BFS source entity keys for Kind "khop".
	SourceKeys []string
	// K is the hop bound for Kind "khop".
	K int
}

// DeriveStats runs one analytics pass and materializes the result as a
// derived predicate (replacing any previous materialization of the same
// predicate). Requires DefineRulesText first — an empty program
// (DefineRulesText("")) stands up an analytics-only engine.
func (p *Platform) DeriveStats(req DeriveRequest) (DeriveReport, error) {
	if p.rules == nil {
		return DeriveReport{}, errors.New("saga: rules engine not initialized; call DefineRulesText first (an empty program works)")
	}
	if req.Out == "" {
		return DeriveReport{}, errors.New("saga: derive: output predicate name required")
	}
	out, err := p.predicateID(req.Out)
	if err != nil {
		return DeriveReport{}, err
	}
	switch req.Kind {
	case "components":
		return p.rules.DeriveComponents(out)
	case "sameas":
		src, ok := p.graph.PredicateByName(req.Source)
		if !ok {
			return DeriveReport{}, fmt.Errorf("saga: derive: unknown source predicate %q", req.Source)
		}
		return p.rules.DeriveSameAsClosure(src.ID, out)
	case "khop":
		srcs := make([]EntityID, 0, len(req.SourceKeys))
		for _, key := range req.SourceKeys {
			e, ok := p.graph.EntityByKey(key)
			if !ok {
				return DeriveReport{}, fmt.Errorf("saga: derive: unknown entity key %q", key)
			}
			srcs = append(srcs, e.ID)
		}
		return p.rules.DeriveKHop(out, srcs, req.K)
	default:
		return DeriveReport{}, fmt.Errorf("saga: derive: unknown kind %q (want components, sameas, or khop)", req.Kind)
	}
}

func (p *Platform) predicateID(name string) (PredicateID, error) {
	if pr, ok := p.graph.PredicateByName(name); ok {
		return pr.ID, nil
	}
	id, err := p.graph.AddPredicate(kg.Predicate{Name: name})
	if err != nil {
		return 0, fmt.Errorf("saga: derive: output predicate %q: %w", name, err)
	}
	return id, nil
}

// EmbeddingOptions configure Platform.TrainEmbeddings.
type EmbeddingOptions struct {
	// View filters the training facts: literal facts never pass, and
	// View.MinPredicateFreq drops rare predicates; the zero value keeps
	// every entity-valued fact (§2).
	View ViewDef
	// Train configures the trainer; zero values pick sensible defaults.
	Train TrainConfig
	// WalkEmbeddings additionally trains traversal-based related-entity
	// vectors and installs them in the service.
	WalkEmbeddings bool
	// Walk configures the walk embedder when WalkEmbeddings is set.
	Walk WalkEmbedConfig
}

// TrainEmbeddings filters the graph into training facts, trains the
// model, and stands up the embedding service (Fig 3's training path).
// Every call scans the graph as it is now through the view and keeps
// nothing of the scan but the training facts.
func (p *Platform) TrainEmbeddings(opts EmbeddingOptions) error {
	facts := make([]embedding.Fact, 0, p.graph.NumTriples())
	p.engine.Scan(opts.View, func(t kg.Triple) {
		facts = append(facts, embedding.Fact{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object.Entity})
	})
	d := embedding.NewDatasetFromFacts(facts)
	if len(d.Triples) == 0 {
		return errors.New("saga: training view produced no entity-valued triples")
	}
	m, err := embedding.Train(d, opts.Train)
	if err != nil {
		return fmt.Errorf("saga: train embeddings: %w", err)
	}
	svc, err := embedserve.New(p.graph, m, d)
	if err != nil {
		return fmt.Errorf("saga: build embedding service: %w", err)
	}
	if opts.WalkEmbeddings {
		vecs := embedding.TrainWalkEmbeddings(p.graph, d.Ents, opts.Walk)
		if err := svc.SetWalkEmbeddings(vecs); err != nil {
			return fmt.Errorf("saga: install walk embeddings: %w", err)
		}
	}
	p.dataset = d
	p.model = m
	p.embedSvc = svc
	return nil
}

// EmbeddingService returns the trained embedding service, or nil before
// TrainEmbeddings.
func (p *Platform) EmbeddingService() *EmbeddingService { return p.embedSvc }

// Model returns the trained embedding model, or nil before training.
func (p *Platform) Model() Model { return p.model }

// Dataset returns the training dataset (index space), or nil.
func (p *Platform) Dataset() *Dataset { return p.dataset }

// RankFacts ranks (subject, predicate, *) facts by embedding score.
func (p *Platform) RankFacts(subject EntityID, predicate PredicateID) ([]RankedFact, error) {
	return p.RankFactsContext(context.Background(), subject, predicate)
}

// RankFactsContext is RankFacts with cancellation, for serving handlers
// that should stop scoring when the client disconnects.
func (p *Platform) RankFactsContext(ctx context.Context, subject EntityID, predicate PredicateID) ([]RankedFact, error) {
	if p.embedSvc == nil {
		return nil, errors.New("saga: embeddings not trained; call TrainEmbeddings first")
	}
	return p.embedSvc.RankFactsContext(ctx, subject, predicate)
}

// CalibrateVerifier fits the fact-verification threshold from labelled
// positive and negative triples given as (subject, predicate, object)
// graph IDs, and installs it in the service.
func (p *Platform) CalibrateVerifier(pos, neg [][3]uint32) error {
	if p.embedSvc == nil {
		return errors.New("saga: embeddings not trained")
	}
	conv := func(in [][3]uint32) ([][3]int32, error) {
		out := make([][3]int32, 0, len(in))
		for _, t := range in {
			h, ok := p.dataset.EntityIndex(kg.EntityID(t[0]))
			if !ok {
				continue
			}
			r, ok := p.dataset.RelationIndex(kg.PredicateID(t[1]))
			if !ok {
				continue
			}
			o, ok := p.dataset.EntityIndex(kg.EntityID(t[2]))
			if !ok {
				continue
			}
			out = append(out, [3]int32{h, r, o})
		}
		if len(out) == 0 {
			return nil, errors.New("saga: no calibration triples map into the embedding space")
		}
		return out, nil
	}
	posIdx, err := conv(pos)
	if err != nil {
		return err
	}
	negIdx, err := conv(neg)
	if err != nil {
		return err
	}
	thr := embedding.CalibrateThreshold(p.model, posIdx, negIdx)
	p.embedSvc.SetVerifyThreshold(thr)
	return nil
}

// VerifyFact classifies a candidate triple (requires CalibrateVerifier).
func (p *Platform) VerifyFact(subject EntityID, predicate PredicateID, object EntityID) (Verification, error) {
	if p.embedSvc == nil {
		return Verification{}, errors.New("saga: embeddings not trained")
	}
	return p.embedSvc.VerifyFact(subject, predicate, object)
}

// RelatedEntities returns the k most related entities.
func (p *Platform) RelatedEntities(id EntityID, k int) ([]embedserve.ScoredEntity, error) {
	return p.RelatedEntitiesContext(context.Background(), id, k)
}

// RelatedEntitiesContext is RelatedEntities with cancellation, for
// serving handlers that should stop the kNN scan when the client
// disconnects.
func (p *Platform) RelatedEntitiesContext(ctx context.Context, id EntityID, k int) ([]embedserve.ScoredEntity, error) {
	if p.embedSvc == nil {
		return nil, errors.New("saga: embeddings not trained")
	}
	return p.embedSvc.RelatedEntitiesContext(ctx, id, k)
}

// BuildAnnotator stands up the semantic annotation service.
func (p *Platform) BuildAnnotator(cfg AnnotateConfig) error {
	a, err := annotate.New(p.graph, cfg)
	if err != nil {
		return fmt.Errorf("saga: build annotator: %w", err)
	}
	p.annotator = a
	return nil
}

// Annotate links entity mentions in text.
func (p *Platform) Annotate(text string) ([]Annotation, error) {
	if p.annotator == nil {
		return nil, errors.New("saga: annotator not built; call BuildAnnotator first")
	}
	return p.annotator.Annotate(text), nil
}

// NewAnnotationPipeline returns a corpus-scale incremental annotation
// pipeline over the platform's annotator.
func (p *Platform) NewAnnotationPipeline(workers int) (*AnnotationPipeline, error) {
	if p.annotator == nil {
		return nil, errors.New("saga: annotator not built")
	}
	return annotate.NewPipeline(p.annotator, workers), nil
}

// BuildODKE wires the extraction pipeline over a search index, using the
// platform's annotator and the default extractor pair (infobox rules +
// annotation-driven text patterns) with the given fuser.
func (p *Platform) BuildODKE(index *websearch.Index, fuser Fuser) error {
	if p.annotator == nil {
		return errors.New("saga: annotator required for ODKE; call BuildAnnotator first")
	}
	resolver := odke.NewEntityResolver(p.graph)
	extractors := []odke.Extractor{
		odke.NewInfoboxExtractor(p.graph, resolver),
		odke.NewTextExtractor(p.graph),
	}
	pipe, err := odke.NewPipeline(p.graph, index, p.annotator, extractors, fuser)
	if err != nil {
		return fmt.Errorf("saga: build ODKE: %w", err)
	}
	if p.wal != nil {
		// Durable platforms fsync-acknowledge every extraction run before
		// Run returns: freshly mined facts survive a crash.
		pipe.DurabilityBarrier = p.wal.SyncToWatermark
	}
	p.odkePipe = pipe
	return nil
}

// RunODKE executes the extraction pipeline over the gaps.
func (p *Platform) RunODKE(gaps []Gap) (ODKEReport, error) {
	if p.odkePipe == nil {
		return ODKEReport{}, errors.New("saga: ODKE not built; call BuildODKE first")
	}
	return p.odkePipe.Run(gaps)
}
