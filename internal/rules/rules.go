// Package rules adds a Datalog-style rule layer on top of the
// conjunctive query stack: derived predicates defined by Horn rules over
// the same Clause/Binding vocabulary the executor already speaks, kept
// fresh under graph mutations by a changefeed consumer, plus in-graph
// analytics (connected components, sameAs closure, k-hop reachability)
// computed from the graph's own reads and materialized as derived
// predicates.
//
// # Rule language
//
// A rule is
//
//	head(S, O) :- body1(S1, O1), body2(S2, O2), ...
//
// where head and every body atom are graphengine.Clauses: a predicate
// plus subject/object terms that are either variables or constants.
// Rules must be range-restricted — every head variable appears somewhere
// in the body — and body subjects follow the executor's contract
// (constant subjects must be entities). Recursion is allowed, including
// self-recursion (transitive closure); negation is not. The rule set is
// stratified anyway — strongly connected components of the head-
// predicate dependency graph, dependencies first — which fixes a
// deterministic evaluation order and is the seam where negation across
// strata would slot in later.
//
// Head predicates are ordinary kg predicates (so the HTTP layer resolves
// them by name), but derived facts are never written into the base
// graph: they live in the rule engine's own kg.Graph, made over the base
// graph's dictionaries (kg.NewGraphOver), which the query stack layers
// over the base graph (graphengine.Overlay). A head predicate may
// also carry base facts; the union presents both.
//
// # Consistency contract
//
// Derived predicates are eventually consistent with the base graph. The
// engine consumes the graph's changefeed: after Engine.Sync returns (or
// at quiescence, once the background maintainer drains the feed) the
// derived store equals a from-scratch derivation over the current graph.
// Between mutation batches, reads may observe the previous fixpoint or a
// mid-batch state; cursors over a derived predicate are exact while the
// derived store is unchanged, like base cursors are exact while the
// graph is unchanged. Analytics predicates are staler still: they
// reflect the graph as their last Derive* call read it (from the
// watermark in its report on) and refresh only when re-derived.
package rules

import (
	"fmt"
	"sort"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

// Rule is one Datalog-style rule: Head holds whenever Body does. Head
// and body atoms reuse the conjunctive query's Clause type; the body is
// solved by the same planner/executor stack as any query.
type Rule struct {
	Head graphengine.Clause
	Body []graphengine.Clause
}

// bodyRef locates one body atom: clause index `clause` of rule `rule`.
// The byBody index maps a predicate to every body atom mentioning it —
// the rule-side twin of the subscription hub's predicate-keyed dispatch.
type bodyRef struct {
	rule   int
	clause int
}

// RuleSet is a validated, stratified set of rules, immutable after
// NewRuleSet.
type RuleSet struct {
	rules  []Rule
	heads  map[kg.PredicateID]struct{}
	byBody map[kg.PredicateID][]bodyRef
	// bindsHead[ri][ci] reports whether body atom ci of rule ri binds
	// every head variable: a fact that grounds it names the one head it
	// can support.
	bindsHead [][]bool
	strata    [][]int // rule indices per stratum, dependencies first
	source    string  // original text when built by ParseRules, else ""
}

// NewRuleSet validates and stratifies the rules. An empty rule set is
// valid (an analytics-only engine has no rules). Validation enforces:
// non-empty bodies, named predicates everywhere, range restriction
// (every head variable appears in the body), entity constants in subject
// slots, and a head subject that is a variable or an entity constant.
func NewRuleSet(rules []Rule) (*RuleSet, error) {
	rs := &RuleSet{
		rules:     make([]Rule, len(rules)),
		heads:     make(map[kg.PredicateID]struct{}),
		byBody:    make(map[kg.PredicateID][]bodyRef),
		bindsHead: make([][]bool, len(rules)),
	}
	copy(rs.rules, rules)
	for ri, r := range rs.rules {
		if err := validateRule(r); err != nil {
			return nil, fmt.Errorf("rules: rule %d: %w", ri, err)
		}
		rs.heads[r.Head.Predicate] = struct{}{}
	}
	for ri, r := range rs.rules {
		rs.bindsHead[ri] = make([]bool, len(r.Body))
		for ci, c := range r.Body {
			rs.byBody[c.Predicate] = append(rs.byBody[c.Predicate], bodyRef{rule: ri, clause: ci})
			rs.bindsHead[ri][ci] = bindsEveryVar(c, r.Head)
		}
	}
	rs.strata = stratify(rs.rules, rs.heads)
	return rs, nil
}

// validateRule checks one rule's structural invariants.
func validateRule(r Rule) error {
	if r.Head.Predicate == kg.NoPredicate {
		return fmt.Errorf("head predicate required")
	}
	if len(r.Body) == 0 {
		return fmt.Errorf("empty body")
	}
	bodyVars := make(map[string]struct{})
	for ci, c := range r.Body {
		if c.Predicate == kg.NoPredicate {
			return fmt.Errorf("body clause %d: predicate required", ci)
		}
		if c.Subject.Var == "" && !c.Subject.Const.IsEntity() {
			return fmt.Errorf("body clause %d: constant subject must be an entity", ci)
		}
		if c.Subject.Var != "" {
			bodyVars[c.Subject.Var] = struct{}{}
		}
		if c.Object.Var != "" {
			bodyVars[c.Object.Var] = struct{}{}
		}
	}
	if r.Head.Subject.Var == "" && !r.Head.Subject.Const.IsEntity() {
		return fmt.Errorf("head subject must be a variable or an entity constant")
	}
	// Range restriction: a head variable not bound by the body would
	// derive facts with free positions.
	for _, t := range [2]graphengine.Term{r.Head.Subject, r.Head.Object} {
		if t.Var == "" {
			continue
		}
		if _, ok := bodyVars[t.Var]; !ok {
			return fmt.Errorf("head variable %q does not appear in the body (range restriction)", t.Var)
		}
	}
	return nil
}

// bindsEveryVar reports whether clause c mentions every variable of head.
func bindsEveryVar(c, head graphengine.Clause) bool {
	for _, t := range [2]graphengine.Term{head.Subject, head.Object} {
		if t.Var != "" && t.Var != c.Subject.Var && t.Var != c.Object.Var {
			return false
		}
	}
	return true
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Source returns the rule text the set was parsed from, or "" when it
// was built from Rule values directly.
func (rs *RuleSet) Source() string { return rs.source }

// IsHead reports whether pred is derived by some rule.
func (rs *RuleSet) IsHead(pred kg.PredicateID) bool {
	_, ok := rs.heads[pred]
	return ok
}

// Heads returns the sorted derived (head) predicates.
func (rs *RuleSet) Heads() []kg.PredicateID {
	out := make([]kg.PredicateID, 0, len(rs.heads))
	for p := range rs.heads {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stratify computes the strata: Tarjan's SCC over the head-predicate
// dependency graph (head H depends on head B when a rule deriving H
// mentions B in its body), with SCCs emitted dependencies-first. Roots
// are visited in ascending predicate order, so the stratification is
// deterministic. Negation-free recursion makes strata an evaluation-
// order choice, not a correctness requirement — any order reaches the
// same fixpoint — but a fixed order keeps derivation-store insertion
// order reproducible.
func stratify(rules []Rule, heads map[kg.PredicateID]struct{}) [][]int {
	preds := make([]kg.PredicateID, 0, len(heads))
	for p := range heads {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })

	deps := make(map[kg.PredicateID][]kg.PredicateID, len(preds))
	for _, r := range rules {
		for _, c := range r.Body {
			if _, isHead := heads[c.Predicate]; isHead && c.Predicate != r.Head.Predicate {
				deps[r.Head.Predicate] = append(deps[r.Head.Predicate], c.Predicate)
			}
		}
	}
	for p := range deps {
		d := deps[p]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		deps[p] = d
	}

	// Tarjan. Successors are dependencies, so an SCC is emitted only
	// after every SCC it depends on — emission order is stratum order.
	var (
		index   = make(map[kg.PredicateID]int, len(preds))
		lowlink = make(map[kg.PredicateID]int, len(preds))
		onStack = make(map[kg.PredicateID]bool, len(preds))
		stack   []kg.PredicateID
		next    int
		sccs    [][]kg.PredicateID
	)
	var strongconnect func(p kg.PredicateID)
	strongconnect = func(p kg.PredicateID) {
		index[p] = next
		lowlink[p] = next
		next++
		stack = append(stack, p)
		onStack[p] = true
		for _, q := range deps[p] {
			if _, seen := index[q]; !seen {
				strongconnect(q)
				if lowlink[q] < lowlink[p] {
					lowlink[p] = lowlink[q]
				}
			} else if onStack[q] && index[q] < lowlink[p] {
				lowlink[p] = index[q]
			}
		}
		if lowlink[p] == index[p] {
			var scc []kg.PredicateID
			for {
				q := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[q] = false
				scc = append(scc, q)
				if q == p {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
			sccs = append(sccs, scc)
		}
	}
	for _, p := range preds {
		if _, seen := index[p]; !seen {
			strongconnect(p)
		}
	}

	strata := make([][]int, 0, len(sccs))
	for _, scc := range sccs {
		in := make(map[kg.PredicateID]struct{}, len(scc))
		for _, p := range scc {
			in[p] = struct{}{}
		}
		var stratum []int
		for ri, r := range rules {
			if _, ok := in[r.Head.Predicate]; ok {
				stratum = append(stratum, ri)
			}
		}
		strata = append(strata, stratum)
	}
	return strata
}
