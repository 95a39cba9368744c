// Package kg implements the core knowledge-graph data model used by the
// Saga reproduction: entities, predicates, literals, triples with
// provenance, an ontology type hierarchy, and an in-memory triple store
// with a subject-major and a predicate-major index and a mutation log.
//
// Everything else in the repository (graph engine, embeddings,
// annotation, ODKE, on-device construction) is layered on top of this
// model.
package kg

import "fmt"

// EntityID is a dense, graph-assigned identifier for an entity. Dense IDs
// let the embedding trainer index parameter matrices directly by ID.
type EntityID uint32

// PredicateID is a dense, graph-assigned identifier for a predicate.
type PredicateID uint32

// TypeID is a dense identifier for an ontology type.
type TypeID uint32

// NoEntity is the zero EntityID and is never assigned to a real entity.
const NoEntity EntityID = 0

// NoPredicate is the zero PredicateID and is never assigned.
const NoPredicate PredicateID = 0

// NoType is the zero TypeID and is never assigned.
const NoType TypeID = 0

func (e EntityID) String() string    { return fmt.Sprintf("E%d", uint32(e)) }
func (p PredicateID) String() string { return fmt.Sprintf("P%d", uint32(p)) }
func (t TypeID) String() string      { return fmt.Sprintf("T%d", uint32(t)) }
