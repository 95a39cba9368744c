package rules

import (
	"slices"

	"saga/internal/kg"
)

// store is the derived-fact state: every fact the rule engine (or an
// analytics pass) has materialized, held in a kg.Graph made over the
// base graph (kg.NewGraphOver) — the graph's own indexes, which the query
// stack layers over the base graph, so derived facts get every access
// path and the canonical order for free — plus what is rule-specific,
// the support side-tables.
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
// dependents is flat: a body key maps to a slice of head keys, unlisted
// by swap-delete. A head has one to three body keys and a body key
// supports a handful of heads, so a list is a scan of a few entries and
// costs a fraction of a map per body fact. A head is listed once under
// each distinct body key of its support (a body fact that grounds two
// atoms of one rule is listed once), except a key that grounds an atom
// binding every head variable (RuleSet.bindsHead): that atom and the key
// name the one head they can support, so the cascade grounds the head
// and checks its support instead (Engine.boundHeadsLocked); on the
// mixed-live program that spares a sixth of the store's bytes.
//
// Analytics facts have no rule support (sup.rule == externalRule) and are
// replaced wholesale by Derive* calls, but they participate in the
// dependents index like any base fact, so a rule body over an analytics
// predicate stays incremental.
//
// Locking: queries read facts concurrently under the graph's own locks;
// the side-tables belong to the maintainer and are guarded by Engine.mu,
// as is every insert and remove.
type store struct {
	facts *kg.Graph
	rs    *RuleSet

	supports   map[kg.TripleKey]support
	dependents map[kg.TripleKey][]kg.TripleKey // body key -> head keys
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

func newStore(g *kg.Graph, rs *RuleSet) *store {
	return &store{
		facts:      kg.NewGraphOver(g),
		rs:         rs,
		supports:   make(map[kg.TripleKey]support),
		dependents: make(map[kg.TripleKey][]kg.TripleKey),
	}
}

// insert adds t with the given support, reporting whether it was new.
// An already-present fact keeps its existing support (first derivation
// wins; any valid support serves the cascade equally). t's IDs come from
// the base graph, whose dictionaries the store's graph reads, so the
// graph accepts it.
func (st *store) insert(t kg.Triple, sup support) bool {
	if added, _ := st.facts.AssertNew(t); !added {
		return false
	}
	k := t.IdentityKey()
	st.supports[k] = sup
	for i, bk := range sup.body {
		if st.listed(sup, i) {
			st.dependents[bk] = append(st.dependents[bk], k)
		}
	}
	return true
}

// listed reports whether a head with support sup is listed under body
// key i: the key's first occurrence in the body, and no atom that binds
// every head variable grounds it.
func (st *store) listed(sup support, i int) bool {
	for j, bk := range sup.body {
		if bk == sup.body[i] && (j < i || st.rs.bindsHead[sup.rule][j]) {
			return false
		}
	}
	return true
}

// remove deletes the fact with identity key k, returning it and
// whether it was present. Every stored fact carries no provenance, so k
// names it whole. The fact's own support is unlisted from dependents,
// but dependents[k] — the facts k supports — is preserved: the caller's
// cascade consumes it.
func (st *store) remove(k kg.TripleKey) (kg.Triple, bool) {
	t := kg.Triple{Subject: k.Subject, Predicate: k.Predicate, Object: k.Object.Value()}
	if !st.facts.Retract(t) {
		return kg.Triple{}, false
	}
	sup := st.supports[k]
	for i, bk := range sup.body {
		if st.listed(sup, i) {
			st.unlist(bk, k)
		}
	}
	delete(st.supports, k)
	return t, true
}

// each calls fn with every stored fact under pred, objects rebuilt from
// their identity keys (so without provenance), in object-key order. fn
// runs under a read lock of the store's graph: it may read the base
// graph, but must not read or write the store.
func (st *store) each(pred kg.PredicateID, fn func(kg.Triple)) {
	st.facts.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
		fn(kg.Triple{Subject: subj, Predicate: pred, Object: obj})
		return true
	})
}

// unlist removes head key k from body key bk's dependents by
// swap-delete. A list the cascade has already taken finds nothing.
func (st *store) unlist(bk, k kg.TripleKey) {
	deps := st.dependents[bk]
	i := slices.Index(deps, k)
	if i < 0 {
		return
	}
	last := len(deps) - 1
	if last == 0 {
		delete(st.dependents, bk)
		return
	}
	deps[i] = deps[last]
	deps[last] = kg.TripleKey{} // release its string for the collector
	st.dependents[bk] = deps[:last]
}
