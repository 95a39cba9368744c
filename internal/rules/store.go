package rules

import (
	"saga/internal/graphengine"
	"saga/internal/kg"
)

// store is the derived-fact state: every fact the rule engine (or an
// analytics pass) has materialized, held in a graphengine.FactSet — the
// same sorted index the query stack layers over the graph, so derived
// facts get every access path and the canonical order for free — plus
// what is rule-specific, the support side-tables.
//
// Each derived fact records ONE support: the rule and the grounded body
// facts of one derivation that produced it. A single support is enough
// because retraction never trusts supports alone — the cascade removes
// every fact whose recorded support lost a member, then a bottom-up
// rederive fixpoint reinstates anything still derivable through other
// derivations. (Counting all supports — classic DRed bookkeeping — is
// unsound against a live graph anyway: derivations observed mid-churn
// can double- or under-count.) The dependents index inverts supports:
// body fact key -> head fact keys it currently supports, which is what
// makes the cascade a key-chase instead of a store scan.
//
// Analytics facts have no rule support (sup.rule == externalRule) and are
// replaced wholesale by Derive* calls, but they participate in the
// dependents index like any base fact, so a rule body over an analytics
// predicate stays incremental.
//
// Locking: queries read facts concurrently under its own leaf lock; the
// side-tables belong to the maintainer and are guarded by Engine.mu, as
// is every insert and remove.
type store struct {
	facts *graphengine.FactSet

	supports   map[kg.TripleKey]support
	dependents map[kg.TripleKey]map[kg.TripleKey]struct{} // body key -> head keys
}

// externalRule marks facts materialized by analytics passes rather than
// rule derivations; they are never cascaded away by retracts (only
// replaced by the next Derive* call).
const externalRule = -1

// support records one derivation of a fact: the rule index and the
// identity keys of the grounded body facts it matched. For external
// facts rule == externalRule and body is nil.
type support struct {
	rule int
	body []kg.TripleKey
}

func newStore() *store {
	return &store{
		facts:      graphengine.NewFactSet(),
		supports:   make(map[kg.TripleKey]support),
		dependents: make(map[kg.TripleKey]map[kg.TripleKey]struct{}),
	}
}

// insert adds t with the given support, reporting whether it was new.
// An already-present fact keeps its existing support (first derivation
// wins; any valid support serves the cascade equally).
func (st *store) insert(t kg.Triple, sup support) bool {
	if !st.facts.Insert(t) {
		return false
	}
	k := t.IdentityKey()
	st.supports[k] = sup
	for _, bk := range sup.body {
		deps := st.dependents[bk]
		if deps == nil {
			deps = make(map[kg.TripleKey]struct{})
			st.dependents[bk] = deps
		}
		deps[k] = struct{}{}
	}
	return true
}

// remove deletes the fact with identity key k, reporting whether it was
// present. The fact's own support is unindexed from dependents, but
// dependents[k] — the facts k supports — is preserved: the caller's
// cascade consumes it.
func (st *store) remove(k kg.TripleKey) (kg.Triple, bool) {
	t, ok := st.facts.Remove(k)
	if !ok {
		return kg.Triple{}, false
	}
	for _, bk := range st.supports[k].body {
		if deps := st.dependents[bk]; deps != nil {
			delete(deps, k)
			if len(deps) == 0 {
				delete(st.dependents, bk)
			}
		}
	}
	delete(st.supports, k)
	return t, true
}
