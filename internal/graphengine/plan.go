package graphengine

import (
	"encoding/binary"
	"math"
	"slices"

	"saga/internal/kg"
)

// The planner half of the query stack. buildPlan turns a conjunctive
// query into an immutable Plan — a clause execution order with one
// statically chosen access path and one cardinality estimate per step —
// and the executor (executor.go) runs a Plan against the graph. The
// split exists so a plan can be cached (plancache.go) and explained to
// the serving tier, neither of which a solver that re-plans inside its
// own recursion can support.
//
// A Plan deliberately does not store the query's terms: steps reference
// the caller's clauses by input index, so one cached Plan serves every
// query with the same shape (see shapeKey) regardless of which constant
// values appear. Executing a plan with a clause slice of a different
// shape is a programming error; the entry points in stream.go always
// pair a plan with the clauses it was keyed on.

// AccessPath is the statically chosen index route for one plan step.
// Which positions are resolved (constant, or a variable bound by an
// earlier step) is known once the clause order is fixed, so the path
// never depends on runtime values.
type AccessPath uint8

const (
	// PathHasFact: both positions resolved — a single membership probe,
	// no candidate enumeration.
	PathHasFact AccessPath = iota
	// PathFacts: subject resolved — enumerate its outgoing facts for the
	// predicate from the subject-major (spo) store.
	PathFacts
	// PathPosting: object resolved — read one posting list from the
	// predicate-object-major (pom) index.
	PathPosting
	// PathScan: nothing resolved — enumerate the predicate's postings
	// and sort into (subject, object key) order.
	PathScan
)

// String names the path for explain output.
func (p AccessPath) String() string {
	switch p {
	case PathHasFact:
		return "has_fact"
	case PathFacts:
		return "facts"
	case PathPosting:
		return "posting"
	case PathScan:
		return "scan"
	}
	return "unknown"
}

// PlanStep is one join level of a Plan: which input clause runs at this
// depth, through which access path, and how many candidates the planner
// expected it to enumerate when the plan was built.
type PlanStep struct {
	// Input is the clause's index in the query as the caller wrote it.
	Input int
	// Path is the statically determined access path.
	Path AccessPath
	// Estimate is the planner's candidate-count estimate for this step
	// at build time (see planCost). Estimates order the join; they are
	// not a promise about execution.
	Estimate int

	// sSlot and oSlot are the row slots of the clause's subject and
	// object variables (-1 for a constant position); a variable's slot is
	// its index in Plan.vars. sNew and oNew mark the positions this step
	// is the first to bind — every earlier-bound variable position is a
	// read of the row, so the executor needs no per-candidate bookkeeping
	// of what is bound. Each slot is newly bound by exactly one step.
	sSlot, oSlot int
	sNew, oNew   bool
}

// compareCursor three-way compares the values a candidate of this step
// newly binds with the cursor's values for those slots, in the step's
// enumeration order (subject, then object key) and under the ValueKey
// order the indexes themselves are sorted by. A step that binds nothing
// compares equal: it is on every path.
func (st *PlanStep) compareCursor(t *kg.Triple, cursor []kg.ValueKey) int {
	if st.sNew {
		if c := (kg.ValueKey{Kind: kg.KindEntity, Num: int64(t.Subject)}).Compare(cursor[st.sSlot]); c != 0 {
			return c
		}
	}
	if st.oNew {
		return t.Object.MapKey().Compare(cursor[st.oSlot])
	}
	return 0
}

// seekAfter returns the subject ID a posting read of this step may start
// after on the way to the cursor: the entries up to it all compare less
// than the cursor's subject and would be dropped one by one. NoEntity
// (start at the beginning) when the cursor's slot holds no usable ID.
func (st *PlanStep) seekAfter(cursor []kg.ValueKey) kg.EntityID {
	if st.sNew {
		if k := cursor[st.sSlot]; k.Kind == kg.KindEntity && k.Num > 0 && k.Num <= math.MaxUint32 {
			return kg.EntityID(k.Num - 1)
		}
	}
	return kg.NoEntity
}

// planFreq snapshots one predicate's global frequency at build time, the
// revalidation anchor for cached plans (see planCache).
type planFreq struct {
	pred kg.PredicateID
	freq int
}

// Plan is an immutable execution plan for one query shape. Build with
// buildPlan (or through the Engine's plan cache); run with an executor.
type Plan struct {
	steps []PlanStep
	vars  []string // sorted variable names — the key-tuple and row-slot order
	shape string   // cache key this plan was built for
	freqs []planFreq
}

// Vars returns a copy of the query's variable names in sorted order —
// the canonical order of binding key tuples and cursors.
func (p *Plan) Vars() []string {
	out := make([]string, len(p.vars))
	copy(out, p.vars)
	return out
}

// StepInfo is the serializable description of one plan step, rendered
// against the query the plan was built for (the HTTP layer's "explain"
// payload).
type StepInfo struct {
	// Clause is the step's index in the submitted query.
	Clause int `json:"clause"`
	// Path names the access path: has_fact, facts, posting, or scan.
	Path string `json:"path"`
	// Estimate is the planner's build-time candidate estimate.
	Estimate int `json:"estimate"`
}

// Describe renders the plan for explain output.
func (p *Plan) Describe() []StepInfo {
	out := make([]StepInfo, len(p.steps))
	for i, st := range p.steps {
		out[i] = StepInfo{Clause: st.Input, Path: st.Path.String(), Estimate: st.Estimate}
	}
	return out
}

// shapeKey builds the cache key for a query: per clause, the predicate
// ID and a bound/unbound signature for each position. Variable names are
// part of the signature — two queries that differ only in variable
// naming would still produce different key tuples (vars sort into cursor
// order by name), so their plans are not interchangeable. Constant
// VALUES are deliberately absent: plans built for one constant are
// reused for another of the same shape, trading per-value optimality for
// a cache that actually hits (the revalidation rule bounds how stale the
// ordering can get).
func shapeKey(clauses []Clause) string {
	b := make([]byte, 0, 16*len(clauses))
	for _, c := range clauses {
		b = binary.AppendUvarint(b, uint64(c.Predicate))
		b = appendTermSig(b, c.Subject)
		b = appendTermSig(b, c.Object)
	}
	return string(b)
}

// appendTermSig appends one position's signature: 'v' + name for a
// variable, 'e' for a constant entity, 'c' for any other constant. The
// length prefix on names keeps the encoding prefix-free.
func appendTermSig(b []byte, t Term) []byte {
	if t.Var != "" {
		b = append(b, 'v')
		b = binary.AppendUvarint(b, uint64(len(t.Var)))
		return append(b, t.Var...)
	}
	if t.Const.IsEntity() {
		return append(b, 'e')
	}
	return append(b, 'c')
}

// buildPlan orders the clauses greedily by estimated candidate count and
// fixes each step's access path. At every depth the cheapest remaining
// clause wins; ties keep the earlier input index, so planning is
// deterministic. Costs for positions resolved by constants are exact
// counter lookups; positions resolved by a variable bound at an earlier
// step have no value to probe at plan time and get the varBoundCost
// heuristic instead (see planCost).
//
// The clauses must already be validated (entity subjects, non-zero
// predicates) — the entry points in stream.go validate before planning.
func buildPlan(g conjGraph, clauses []Clause, shape string) *Plan {
	n := len(clauses)
	p := &Plan{
		steps: make([]PlanStep, 0, n),
		vars:  queryVars(clauses),
		shape: shape,
	}
	used := make([]bool, n)
	bound := make(map[string]bool, len(p.vars))
	for len(p.steps) < n {
		best, bestCost := -1, 0
		for i, c := range clauses {
			if used[i] {
				continue
			}
			if cost := planCost(g, c, bound); best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		c := clauses[best]
		st := PlanStep{
			Input:    best,
			Path:     pathFor(c, bound),
			Estimate: bestCost,
			sSlot:    slices.Index(p.vars, c.Subject.Var),
			oSlot:    slices.Index(p.vars, c.Object.Var),
		}
		used[best] = true
		if c.Subject.Var != "" && !bound[c.Subject.Var] {
			bound[c.Subject.Var] = true
			st.sNew = true
		}
		if c.Object.Var != "" && !bound[c.Object.Var] {
			bound[c.Object.Var] = true
			st.oNew = true
		}
		p.steps = append(p.steps, st)
	}
	p.freqs = snapshotFreqs(g, clauses)
	return p
}

// pathFor picks the access path for a clause given which variables are
// bound before it runs.
func pathFor(c Clause, bound map[string]bool) AccessPath {
	sRes := c.Subject.Var == "" || bound[c.Subject.Var]
	oRes := c.Object.Var == "" || bound[c.Object.Var]
	switch {
	case sRes && oRes:
		return PathHasFact
	case sRes:
		return PathFacts
	case oRes:
		return PathPosting
	default:
		return PathScan
	}
}

// planCost estimates how many candidates expanding the clause would
// enumerate, with only static boundness known. Constant-resolved arms
// are exact counter lookups (FactCount, SubjectsWithCount,
// PredicateFrequency) — no result slice is ever materialized for cost
// estimation; variable-resolved arms use varBoundCost.
func planCost(g conjGraph, c Clause, bound map[string]bool) int {
	sConst := c.Subject.Var == ""
	oConst := c.Object.Var == ""
	sRes := sConst || bound[c.Subject.Var]
	oRes := oConst || bound[c.Object.Var]
	switch {
	case sRes && oRes:
		return 1
	case sRes:
		if sConst {
			return g.FactCount(c.Subject.Const.Entity, c.Predicate) + 1
		}
		return varBoundCost(g, c.Predicate)
	case oRes:
		if oConst {
			return g.SubjectsWithCount(c.Predicate, c.Object.Const) + 1
		}
		return varBoundCost(g, c.Predicate)
	default:
		return g.PredicateFrequency(c.Predicate) + 2
	}
}

// varBoundCost estimates expanding a clause whose resolved position is a
// variable bound at an earlier step. The per-binding fan-out is unknown
// at plan time; assume a small constant fan-out, except that a predicate
// rarer than the assumption caps the cost at its global frequency (one
// binding cannot enumerate more facts than the predicate has).
func varBoundCost(g conjGraph, pred kg.PredicateID) int {
	const assumedFanOut = 8
	if pf := g.PredicateFrequency(pred); pf < assumedFanOut {
		return pf + 1
	}
	return assumedFanOut
}

// snapshotFreqs records the distinct predicates' global frequencies for
// cheap revalidation of a cached plan.
func snapshotFreqs(g conjGraph, clauses []Clause) []planFreq {
	freqs := make([]planFreq, 0, len(clauses))
	for _, c := range clauses {
		seen := false
		for _, f := range freqs {
			if f.pred == c.Predicate {
				seen = true
				break
			}
		}
		if !seen {
			freqs = append(freqs, planFreq{pred: c.Predicate, freq: g.PredicateFrequency(c.Predicate)})
		}
	}
	return freqs
}

// stale reports whether the graph's predicate counters have drifted far
// enough from the plan's build-time snapshot that its clause ordering
// may no longer be competitive. Both an absolute floor and a ratio must
// trip: small graphs churn ratios with a handful of writes, and large
// graphs move thousands of triples without reordering anything.
func (p *Plan) stale(g conjGraph) bool {
	for _, f := range p.freqs {
		cur := g.PredicateFrequency(f.pred)
		diff := cur - f.freq
		if diff < 0 {
			diff = -diff
		}
		if diff > 64 && (cur > 2*f.freq || f.freq > 2*cur) {
			return true
		}
	}
	return false
}
