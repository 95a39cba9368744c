package graphengine

import (
	"iter"
	"maps"
	"slices"

	"saga/internal/kg"
)

// The delta-join: which rows of a conjunction use one given triple. The
// subscription hub (a mutation against a standing query) and the rule
// engine (a new fact against a rule body) both maintain their results
// with it, so that after any update sequence they hold what a
// from-scratch solve would.

// DeltaRows yields the rows of the conjunction in which clause i matches
// exactly t: θ = unify(clause i, t), the other clauses solved with θ
// substituted, each row completed with θ. solve streams a conjunction's
// rows to its callback until that returns false, and stops at an error;
// it is not called when θ leaves nothing else to solve. The caller
// vouches that t holds.
//
// A θ value that is not Equal to itself (a NaN float) never reaches the
// residual: as a constant it would match under SPO identity, but a
// from-scratch solve keeps it a join variable with Equal semantics, which
// NaN never satisfies — so if its variable occurs in another clause there
// are no rows, and if it does not, there is nothing to substitute.
func DeltaRows(clauses []Clause, i int, t kg.Triple, solve func([]Clause, func(Binding) bool)) iter.Seq[Binding] {
	return func(yield func(Binding) bool) {
		theta, ok := UnifyClause(clauses[i], t)
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
		sub, ok := SubstituteClauses(clauses, theta)
		if !ok {
			return
		}
		rest := slices.Delete(sub, i, i+1)
		if len(rest) == 0 {
			yield(theta)
			return
		}
		solve(rest, func(row Binding) bool {
			// Shared names were substituted as constants, so θ and the
			// row bind disjoint variables.
			maps.Copy(row, theta)
			return yield(row)
		})
	}
}

// UnifyClause matches one clause against a concrete triple and returns
// the variable substitution θ. Constants match under SPO identity; a
// variable in both positions must bind consistently (Equal semantics,
// matching the executor's join).
func UnifyClause(c Clause, t kg.Triple) (Binding, bool) {
	if c.Predicate != t.Predicate {
		return nil, false
	}
	subj := kg.EntityValue(t.Subject)
	switch {
	case c.Subject.Var == "" && (!c.Subject.Const.IsEntity() || c.Subject.Const.Entity != t.Subject),
		c.Object.Var == "" && c.Object.Const.MapKey() != t.Object.MapKey(),
		c.Object.Var != "" && c.Object.Var == c.Subject.Var && !subj.Equal(t.Object):
		return nil, false
	}
	theta := make(Binding, 2)
	if c.Object.Var != "" {
		theta[c.Object.Var] = t.Object
	}
	if c.Subject.Var != "" {
		theta[c.Subject.Var] = subj
	}
	return theta, true
}

// SubstituteClauses grounds θ's variables into the clauses, leaving the
// remaining variables free. ok is false when θ would place a non-entity
// value in a subject slot — such a conjunction has no rows (subjects are
// entities) and is also structurally invalid.
func SubstituteClauses(clauses []Clause, theta Binding) ([]Clause, bool) {
	out := make([]Clause, len(clauses))
	for i, c := range clauses {
		if c.Subject.Var != "" {
			if v, ok := theta[c.Subject.Var]; ok {
				if !v.IsEntity() {
					return nil, false
				}
				c.Subject = Term{Const: v}
			}
		}
		if c.Object.Var != "" {
			if v, ok := theta[c.Object.Var]; ok {
				c.Object = Term{Const: v}
			}
		}
		out[i] = c
	}
	return out, true
}
