// Package saga is the public API of the Saga knowledge-platform
// reproduction. It re-exports the core data model and wires the
// subsystems — graph engine, embedding pipeline, embedding service,
// semantic annotation, open-domain knowledge extraction, and the
// on-device stack — behind one Platform type.
//
// The subsystem implementations live in internal/ packages; this package
// aliases their exported types so downstream users program against a
// single import.
package saga

import (
	"saga/internal/annotate"
	"saga/internal/embedding"
	"saga/internal/embedserve"
	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/odke"
	"saga/internal/ondevice"
	"saga/internal/rules"
	"saga/internal/vecindex"
	"saga/internal/webcorpus"
	"saga/internal/websearch"
	"saga/internal/workload"
)

// Core data model (internal/kg).
type (
	// Graph is the in-memory indexed triple store.
	Graph = kg.Graph
	// Entity is a node's metadata record.
	Entity = kg.Entity
	// Predicate is an edge label's metadata record.
	Predicate = kg.Predicate
	// Triple is one fact with provenance.
	Triple = kg.Triple
	// Value is a triple object: entity reference or typed literal.
	Value = kg.Value
	// Provenance records fact origin and trust.
	Provenance = kg.Provenance
	// Ontology is the type hierarchy.
	Ontology = kg.Ontology
	// EntityID identifies an entity.
	EntityID = kg.EntityID
	// PredicateID identifies a predicate.
	PredicateID = kg.PredicateID
	// TypeID identifies an ontology type.
	TypeID = kg.TypeID
	// Mutation is one change-log entry.
	Mutation = kg.Mutation
)

// Value constructors.
var (
	EntityValue = kg.EntityValue
	StringValue = kg.StringValue
	IntValue    = kg.IntValue
	FloatValue  = kg.FloatValue
	TimeValue   = kg.TimeValue
	BoolValue   = kg.BoolValue
)

// Value kinds.
const (
	KindEntity = kg.KindEntity
	KindString = kg.KindString
	KindInt    = kg.KindInt
	KindFloat  = kg.KindFloat
	KindTime   = kg.KindTime
	KindBool   = kg.KindBool
)

// Gap kinds.
const (
	GapMissing = odke.GapMissing
	GapStale   = odke.GapStale
)

// NewGraph returns an empty knowledge graph.
func NewGraph() *Graph { return kg.NewGraph() }

// Graph engine (internal/graphengine).
type (
	// Engine provides conjunctive queries, subscriptions, and the filtered
	// training-view scan.
	Engine = graphengine.Engine
	// ViewDef declares the training view's filter.
	ViewDef = graphengine.ViewDef
	// QueryClause is one triple pattern of a conjunctive query.
	QueryClause = graphengine.Clause
	// QueryTerm is a variable or constant clause position.
	QueryTerm = graphengine.Term
	// QueryBinding maps variables to values in a query answer.
	QueryBinding = graphengine.Binding
	// QueryRow is a query answer in slot form: Vals[i] is the value of
	// variable Vars[i], sorted-variable order. Vals is only valid until
	// the stream's next row; Binding() and Key() detach it.
	QueryRow = graphengine.Row
	// QueryOptions configure one streaming query: limit push-down,
	// cursor resumption, and cancellation.
	QueryOptions = graphengine.QueryOptions
	// QueryCursor is a binding's identity tuple, the resume position of
	// a paginated conjunctive query: the next page starts at that row's
	// successor in the stream's canonical order, which depends on the
	// facts alone — not on restarts, recovery, writer interleaving or
	// whether the row itself still exists.
	QueryCursor = []kg.ValueKey
	// QueryPlan is an immutable conjunctive-query execution plan:
	// clause order, access paths, and build-time cardinality estimates.
	QueryPlan = graphengine.Plan
	// QueryPlanStep is the serializable description of one plan step.
	QueryPlanStep = graphengine.StepInfo
	// QueryPlanCacheStats snapshots the plan cache's counters.
	QueryPlanCacheStats = graphengine.PlanCacheStats
)

// Conjunctive-query term constructors and cursor helpers.
var (
	// QVar names a query variable.
	QVar = graphengine.V
	// QConst binds a constant value.
	QConst = graphengine.C
	// QEntity binds a constant entity.
	QEntity = graphengine.CE
	// QueryBindingKey returns a binding's identity tuple (values in
	// sorted-variable order) — the input to EncodeQueryCursor.
	QueryBindingKey = graphengine.BindingKey
	// EncodeQueryCursor serializes a binding key tuple into the opaque
	// URL-safe resume token the /query endpoint hands out.
	EncodeQueryCursor = graphengine.EncodeCursor
	// DecodeQueryCursor parses a token produced by EncodeQueryCursor.
	DecodeQueryCursor = graphengine.DecodeCursor
)

// Rule layer (internal/rules).
type (
	// RuleSet is a validated, stratified rule program.
	RuleSet = rules.RuleSet
	// RulesEngine maintains the derived-fact fixpoint incrementally.
	RulesEngine = rules.Engine
	// RuleEngineStats snapshots the rules engine's counters.
	RuleEngineStats = rules.Stats
	// DeriveReport describes one analytics materialization.
	DeriveReport = rules.DeriveReport
)

// Embeddings (internal/embedding, internal/embedserve).
type (
	// Dataset is a re-indexed embedding training set.
	Dataset = embedding.Dataset
	// TrainConfig configures embedding training.
	TrainConfig = embedding.TrainConfig
	// Model is a trained shallow KG embedding model.
	Model = embedding.Model
	// ModelKind selects TransE, DistMult, or ComplEx.
	ModelKind = embedding.ModelKind
	// WalkEmbedConfig configures traversal-based related-entity vectors.
	WalkEmbedConfig = embedding.WalkEmbedConfig
	// EmbeddingService serves embeddings for ranking/verification/related.
	EmbeddingService = embedserve.Service
	// RankedFact is a fact with its plausibility score.
	RankedFact = embedserve.RankedFact
	// Verification is a fact-verification outcome.
	Verification = embedserve.Verification
	// ScoredEntity is a related entity with its similarity score.
	ScoredEntity = embedserve.ScoredEntity
)

// Model kinds.
const (
	TransE   = embedding.TransE
	DistMult = embedding.DistMult
	ComplEx  = embedding.ComplEx
)

// Annotation (internal/annotate).
type (
	// AnnotateConfig configures the annotation service.
	AnnotateConfig = annotate.Config
	// Annotation is one linked mention.
	Annotation = annotate.Annotation
	// AnnotationPipeline annotates corpora incrementally.
	AnnotationPipeline = annotate.Pipeline
	// AnnotationMode selects lexical/popularity/contextual ranking.
	AnnotationMode = annotate.Mode
)

// Annotation modes.
const (
	ModeLexical    = annotate.ModeLexical
	ModePopularity = annotate.ModePopularity
	ModeContextual = annotate.ModeContextual
)

// ODKE (internal/odke).
type (
	// Gap is a missing or stale fact slot.
	Gap = odke.Gap
	// ODKEReport summarizes a pipeline run.
	ODKEReport = odke.Report
	// Fuser corroborates candidate facts.
	Fuser = odke.Fuser
	// MajorityVoteFuser corroborates by vote share.
	MajorityVoteFuser = odke.MajorityVoteFuser
)

// Web substrates (internal/webcorpus, internal/websearch).
type (
	// Document is a synthetic web page.
	Document = webcorpus.Document
	// SearchIndex is the BM25 search engine.
	SearchIndex = websearch.Index
)

// On-device (internal/ondevice).
type (
	// DeviceRecord is one raw source observation.
	DeviceRecord = ondevice.Record
)

// Vector index (internal/vecindex).
type (
	// Vector is a dense embedding.
	Vector = vecindex.Vector
)

// Workload generators (internal/workload) — exposed so downstream users
// can reproduce the benchmark worlds.
type (
	// WorldConfig sizes the synthetic KG.
	WorldConfig = workload.KGConfig
	// World is a generated KG plus gold structure.
	World = workload.World
	// CorpusConfig sizes the synthetic web corpus.
	CorpusConfig = webcorpus.Config
)

// GenerateWorld builds a synthetic open-domain KG.
func GenerateWorld(cfg WorldConfig) (*World, error) { return workload.GenerateKG(cfg) }

// GenerateCorpus builds a synthetic web corpus over a world.
func GenerateCorpus(w *World, cfg CorpusConfig) []*Document { return webcorpus.Generate(w, cfg) }

// NewSearchIndex indexes documents for BM25 search.
func NewSearchIndex(docs []*Document) *SearchIndex { return websearch.NewIndex(docs) }
