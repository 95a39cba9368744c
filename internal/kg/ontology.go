package kg

import (
	"fmt"
	"sync"
)

// Ontology is the type system of the knowledge graph: a forest of types
// connected by subtype-of edges. Entities are assigned one or more types;
// queries like "movies" → ontology_type_movie (paper §1) resolve against
// it, and ODKE's entity resolver and extractors use IsA to keep only
// candidates of a compatible type.
//
// Ontology is safe for concurrent use.
type Ontology struct {
	mu     sync.RWMutex
	names  []string // TypeID -> name (index 0 unused)
	byName map[string]TypeID
	parent []TypeID // TypeID -> parent (NoType for roots)
}

// NewOntology returns an empty ontology.
func NewOntology() *Ontology {
	return &Ontology{
		names:  []string{""},
		byName: make(map[string]TypeID),
		parent: []TypeID{NoType},
	}
}

// AddType registers a type under the given parent. parent == NoType creates
// a root type. Adding an existing name returns the existing ID (the parent
// must match, otherwise an error is returned).
func (o *Ontology) AddType(name string, parent TypeID) (TypeID, error) {
	if name == "" {
		return NoType, fmt.Errorf("kg: empty type name")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if id, ok := o.byName[name]; ok {
		if o.parent[id] != parent {
			return NoType, fmt.Errorf("kg: type %q already exists with different parent", name)
		}
		return id, nil
	}
	if parent != NoType && int(parent) >= len(o.names) {
		return NoType, fmt.Errorf("kg: unknown parent type %v", parent)
	}
	id := TypeID(len(o.names))
	o.names = append(o.names, name)
	o.parent = append(o.parent, parent)
	o.byName[name] = id
	return id, nil
}

// TypeID looks up a type by name.
func (o *Ontology) TypeID(name string) (TypeID, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	id, ok := o.byName[name]
	return id, ok
}

// Name returns the name of a type, or "" if unknown.
func (o *Ontology) Name(id TypeID) string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if int(id) >= len(o.names) {
		return ""
	}
	return o.names[id]
}

// Parent returns the parent of a type (NoType for roots or unknown types).
func (o *Ontology) Parent(id TypeID) TypeID {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if int(id) >= len(o.parent) {
		return NoType
	}
	return o.parent[id]
}

// IsA reports whether t is equal to, or a descendant of, ancestor.
func (o *Ontology) IsA(t, ancestor TypeID) bool {
	if t == NoType || ancestor == NoType {
		return false
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	for t != NoType {
		if t == ancestor {
			return true
		}
		if int(t) >= len(o.parent) {
			return false
		}
		t = o.parent[t]
	}
	return false
}

// Len returns the number of registered types.
func (o *Ontology) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.names) - 1
}
