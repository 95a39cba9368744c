package graphengine

import (
	"iter"
	"maps"
	"slices"

	"saga/internal/kg"
)

// Conjunctive queries over the graph: the query shape behind the paper's
// §1 example ("movies directed by Benicio Del Toro" = ?m with
// (?m, directedBy, delToro) ∧ (?m, type, Movie)). A query is a set of
// clauses over variables and constants; evaluation is a selectivity-
// ordered nested-loop join with binding propagation, which is how the
// Saga graph engine's retrieval path behaves for small conjunctive
// patterns. The solver itself streams (see StreamConjunctive in
// stream.go); QueryConjunctive below is the materializing compatibility
// shim.

// Term is one position of a clause: either a variable (Var != "") or a
// constant. Subject terms must be entities; object terms may be any
// value.
type Term struct {
	// Var names a variable ("?m"); empty means the term is a constant.
	Var string
	// Const is the constant value (entity or literal) when Var is empty.
	Const kg.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v kg.Value) Term { return Term{Const: v} }

// CE returns a constant entity term.
func CE(id kg.EntityID) Term { return Term{Const: kg.EntityValue(id)} }

// Clause is one triple pattern of a conjunctive query. The predicate is
// always constant (variable predicates explode the search space and the
// platform's use cases never need them).
type Clause struct {
	Subject   Term
	Predicate kg.PredicateID
	Object    Term
}

// Binding maps variable names to values.
type Binding map[string]kg.Value

// QueryConjunctive evaluates the conjunction and returns all satisfying
// bindings. It is a collect-and-sort shim over StreamConjunctive, kept
// for callers (and tests) that pin the sorted order: the stream yields
// each distinct binding once, in plan order, and this shim sorts the
// collected rows by their kg.ValueKey tuples in sorted-variable order, so
// order is defined by comparable keys, never by rendered strings. Callers
// that do not need every row sorted should consume StreamConjunctive
// directly and push their limit into the solve.
func (e *Engine) QueryConjunctive(clauses []Clause) ([]Binding, error) {
	return collectSorted(e.StreamConjunctive(clauses, QueryOptions{}))
}

// collectSorted drains a binding stream and sorts it by key tuple.
func collectSorted(stream iter.Seq2[Binding, error]) ([]Binding, error) {
	var out []Binding
	for b, err := range stream {
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	sortBindingsByKey(out)
	return out, nil
}

// sortBindingsByKey orders the bindings of one query (so all over the
// same variables) by their key tuples: the values' ValueKeys in
// sorted-variable order — the order QueryConjunctive returns and
// subscription events are defined over.
func sortBindingsByKey(bs []Binding) {
	if len(bs) < 2 {
		return
	}
	vars := slices.Sorted(maps.Keys(bs[0]))
	type keyedBinding struct {
		b   Binding
		key []kg.ValueKey
	}
	rows := make([]keyedBinding, len(bs))
	keys := make([]kg.ValueKey, len(bs)*len(vars))
	for i, b := range bs {
		row := keys[i*len(vars) : (i+1)*len(vars)]
		for j, name := range vars {
			row[j] = b[name].MapKey()
		}
		rows[i] = keyedBinding{b: b, key: row}
	}
	slices.SortFunc(rows, func(a, b keyedBinding) int { return compareKeyRows(a.key, b.key) })
	for i, r := range rows {
		bs[i] = r.b
	}
}

// compareKeyRows lexicographically orders two equal-length ValueKey
// tuples.
func compareKeyRows(a, b []kg.ValueKey) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}
