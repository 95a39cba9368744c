package rules

import (
	"iter"
	"maps"
	"slices"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

// The delta-join: which rows of a rule body use one given triple. The
// maintainer propagates each newly visible fact with it, so that after
// any update sequence the store holds what a from-scratch derivation
// would.

// deltaRows yields the rows of the conjunction in which clause i matches
// exactly t: θ = unify(clause i, t), the other clauses solved with θ
// substituted through the union view, each row completed with θ. The
// caller vouches that t holds.
//
// A θ value that is not Equal to itself (a NaN float) never reaches the
// residual: as a constant it would match under SPO identity, but a
// from-scratch solve keeps it a join variable with Equal semantics, which
// NaN never satisfies — so if its variable occurs in another clause there
// are no rows, and if it does not, there is nothing to substitute.
func (e *Engine) deltaRows(clauses []graphengine.Clause, i int, t kg.Triple) iter.Seq[graphengine.Binding] {
	return func(yield func(graphengine.Binding) bool) {
		theta, ok := graphengine.UnifyClause(clauses[i], t)
		if !ok {
			return
		}
		for name, v := range theta {
			if v.Equal(v) {
				continue
			}
			for j, c := range clauses {
				if j != i && (c.Subject.Var == name || c.Object.Var == name) {
					return
				}
			}
		}
		sub, ok := substituteClauses(clauses, theta)
		if !ok {
			return
		}
		rest := slices.Delete(sub, i, i+1)
		if len(rest) == 0 {
			yield(theta)
			return
		}
		e.solve(rest, func(row graphengine.Binding) bool {
			// Shared names were substituted as constants, so θ and the
			// row bind disjoint variables.
			maps.Copy(row, theta)
			return yield(row)
		})
	}
}

// substituteClauses grounds θ's variables into the clauses, leaving the
// remaining variables free. ok is false when θ would place a non-entity
// value in a subject slot — such a conjunction has no rows (subjects are
// entities) and is also structurally invalid.
func substituteClauses(clauses []graphengine.Clause, theta graphengine.Binding) ([]graphengine.Clause, bool) {
	out := make([]graphengine.Clause, len(clauses))
	for i, c := range clauses {
		if c.Subject.Var != "" {
			if v, ok := theta[c.Subject.Var]; ok {
				if !v.IsEntity() {
					return nil, false
				}
				c.Subject = graphengine.Term{Const: v}
			}
		}
		if c.Object.Var != "" {
			if v, ok := theta[c.Object.Var]; ok {
				c.Object = graphengine.Term{Const: v}
			}
		}
		out[i] = c
	}
	return out, true
}
