package rules

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

// pollEvery is the background maintainer's changefeed polling cadence.
const pollEvery = 5 * time.Millisecond

// Options configures an Engine.
type Options struct {
	// OnDelta, when set, is called after each maintenance step with the
	// facts whose visibility changed because of the derived store: adds
	// became visible (stored and not base-asserted), rets became
	// invisible. Wire it to graphengine.Engine.ApplyDerivedDeltas so
	// standing subscriptions over derived predicates stay live. Called
	// with the engine's maintenance lock held; the callback must not call
	// back into the rules engine.
	OnDelta func(adds, rets []kg.Triple)

	// NoMaintainer disables the background goroutine; the owner drives
	// maintenance explicitly through Sync. Tests and benchmarks use this
	// to make staleness deterministic.
	NoMaintainer bool
}

// Stats is a point-in-time snapshot of the engine's derived state and
// maintenance counters.
type Stats struct {
	Facts       int    // derived facts currently stored (rules + analytics)
	Rules       int    // rules in the set
	Strata      int    // strata in the stratification
	Batches     uint64 // delta batches applied
	FullRuns    uint64 // full re-derivations (initial + floor-passed)
	Derivations uint64 // facts inserted over the engine's lifetime
	Retractions uint64 // facts removed over the engine's lifetime
	Cursor      uint64 // changefeed position
	Lag         uint64 // mutations behind the graph watermark (staleness hint)
}

// Engine owns the derived-fact store for one rule set over one graph:
// it runs the initial full derivation, then consumes the graph's
// changefeed to keep the store at the fixpoint incrementally
// (semi-naive: each mutation is delta-substituted into the body atoms
// that mention its predicate and the residual is solved by the regular
// executor). Attaching its fact set (Derived) to a graphengine.Engine
// makes the derived predicates queryable through every existing surface.
type Engine struct {
	g    *kg.Graph
	geng *graphengine.Engine
	rs   *RuleSet
	st   *store
	view *graphengine.Overlay // g ∪ st.facts: what rule bodies are solved against

	// mu serializes maintenance: changefeed pumping, full re-derivation,
	// and analytics replacement, and with them every write to the store.
	// Queries read the store's fact set under its own leaf lock and never
	// take mu; the OnDelta callback (hub locks) runs under mu.
	mu      sync.Mutex
	feed    *kg.Changefeed
	onDelta func(adds, rets []kg.Triple)

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once

	batches     atomic.Uint64
	fullRuns    atomic.Uint64
	derivations atomic.Uint64
	retractions atomic.Uint64
}

// New builds the engine, runs the initial full derivation synchronously
// (the store is at the fixpoint when New returns), and starts the
// background maintainer unless opts.NoMaintainer. The caller attaches
// the engine's facts to the graphengine.Engine (AttachDerived(e.Derived()))
// to make derived predicates queryable; Close stops the maintainer.
func New(geng *graphengine.Engine, rs *RuleSet, opts Options) (*Engine, error) {
	g := geng.Graph()
	e := &Engine{
		g:       g,
		geng:    geng,
		rs:      rs,
		st:      newStore(),
		onDelta: opts.OnDelta,
		feed:    g.Feed(0),
		stop:    make(chan struct{}),
	}
	e.view = graphengine.Union(g, e.st.facts)
	e.mu.Lock()
	e.rederiveFullLocked()
	e.mu.Unlock()
	if !opts.NoMaintainer {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			t := time.NewTicker(pollEvery)
			defer t.Stop()
			for {
				select {
				case <-e.stop:
					return
				case <-t.C:
					e.Sync()
				}
			}
		}()
	}
	return e, nil
}

// Close stops the background maintainer and closes the engine's
// changefeed, so the graph's log no longer keeps what the engine has not
// read. The store stays readable (a detached engine serves its last
// fixpoint, going stale); a later Sync rederives it in full.
func (e *Engine) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
	e.mu.Lock()
	e.feed.Close()
	e.mu.Unlock()
}

// RuleSet returns the engine's rule set.
func (e *Engine) RuleSet() *RuleSet { return e.rs }

// Derived returns the engine's derived facts (rules and analytics), live:
// the set graphengine.Engine.AttachDerived layers over the graph. Callers
// only read it.
func (e *Engine) Derived() *graphengine.FactSet { return e.st.facts }

// Stats snapshots the maintenance counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Facts:       e.st.facts.Len(),
		Rules:       e.rs.Len(),
		Strata:      len(e.rs.strata),
		Batches:     e.batches.Load(),
		FullRuns:    e.fullRuns.Load(),
		Derivations: e.derivations.Load(),
		Retractions: e.retractions.Load(),
		Cursor:      e.feedCursor(),
		Lag:         e.feedLag(),
	}
}

func (e *Engine) feedCursor() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.feed.Cursor()
}

func (e *Engine) feedLag() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.feed.Lag()
}

// Sync drains the changefeed: when it returns, the derived store is the
// fixpoint over every mutation the graph had applied when the final
// (empty) pull happened. Concurrent writers can of course keep the feed
// non-empty; quiescent graphs reach quiescent stores.
func (e *Engine) Sync() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.pumpLocked() {
	}
}

// pumpLocked applies one changefeed batch, reporting whether it made
// progress (false = caught up). A floor-passed feed (incomplete pull)
// falls back to full re-derivation, per the changefeed contract.
func (e *Engine) pumpLocked() bool {
	muts, complete := e.feed.Pull()
	if !complete {
		e.rederiveFullLocked()
		return true
	}
	if len(muts) == 0 {
		return false
	}
	e.batches.Add(1)
	// Two-phase batch application. Retracts only overdelete (cascade the
	// support graph into pending); asserts propagate set-at-a-time. The
	// single rederive pass at the end repairs whatever overdeletion was
	// not already healed by assert propagation — deferring the repair
	// means a retract+re-assert of the same fact (the dominant churn
	// shape) is healed by the cheap delta-join propagation instead of
	// per-fact support searches, and overlapping damage from several
	// retracts is repaired once, not once per retract.
	var adds, rets []kg.Triple
	pending := make(map[kg.TripleKey]kg.Triple)
	for _, mu := range muts {
		switch mu.Op {
		case kg.OpAssert:
			adds = e.propagateLocked([]kg.Triple{mu.T}, adds)
		case kg.OpRetract:
			e.cascadeLocked(mu.T.IdentityKey(), pending)
		}
	}
	adds, rets = e.rederivePendingLocked(pending, adds, rets)
	e.notifyLocked(adds, rets)
	return true
}

// notifyLocked reports visibility deltas to the OnDelta hook.
func (e *Engine) notifyLocked(adds, rets []kg.Triple) {
	if e.onDelta != nil && (len(adds) > 0 || len(rets) > 0) {
		e.onDelta(adds, rets)
	}
}

// propagateLocked drains a worklist of newly visible facts through the
// byBody index. Every insert that is not base-asserted is appended to
// adds (the hub needs to hear about store-caused visibility even when
// the hub's own feed already carries the triggering base mutation — the
// two consumers race, and the add notification is what makes either
// order converge).
func (e *Engine) propagateLocked(work []kg.Triple, adds []kg.Triple) []kg.Triple {
	for len(work) > 0 {
		w := work[0]
		work = work[1:]
		for _, ref := range e.rs.byBody[w.Predicate] {
			r := e.rs.rules[ref.rule]
			for full := range graphengine.DeltaRows(r.Body, ref.clause, w, e.solve) {
				head, ok := groundClause(r.Head, full)
				if !ok {
					continue
				}
				sup, ok := e.supportFor(ref.rule, full)
				if ok && e.st.insert(head, sup) {
					e.derivations.Add(1)
					if !e.g.HasFact(head.Subject, head.Predicate, head.Object) {
						adds = append(adds, head)
					}
					work = append(work, head)
				}
			}
		}
	}
	return adds
}

// supportFor grounds rule ri's body under a complete row into the
// support the row witnesses. ok is false when the row leaves a body
// variable unbound.
func (e *Engine) supportFor(ri int, row graphengine.Binding) (support, bool) {
	body := e.rs.rules[ri].Body
	sup := support{rule: ri, body: make([]kg.TripleKey, len(body))}
	for ci, c := range body {
		b, ok := groundClause(c, row)
		if !ok {
			return support{}, false
		}
		sup.body[ci] = b.IdentityKey()
	}
	return sup, true
}

// cascadeLocked overdeletes for one retracted base key: the store copy
// of the same key (if any) and every derived fact transitively supported
// by it are removed into pending. Removing the store copy of the
// retracted key itself is what makes the eventual repair well-founded: a
// fact whose only justification was itself (possible when it was
// base-visible at derivation time) does not survive as a
// self-supporting ghost. pending is shared across a batch's retracts; a
// fact removed, reinstated by a later assert's propagation, and hit by
// another retract cascades again because the store removal (not pending
// membership) gates the chase.
func (e *Engine) cascadeLocked(bk kg.TripleKey, pending map[kg.TripleKey]kg.Triple) {
	queue := []kg.TripleKey{bk}
	if rt, ok := e.st.remove(bk); ok {
		pending[bk] = rt
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for hk := range e.st.dependents[k] {
			if ht, ok := e.st.remove(hk); ok {
				pending[hk] = ht
				queue = append(queue, hk)
			}
		}
	}
}

// rederivePendingLocked repairs a batch's overdeletion: one pass over
// the removed facts in sorted key order, searching each still-absent one
// for a surviving derivation. Every reinstated fact is pushed through
// the propagation worklist immediately, so facts whose only remaining
// derivations go through other reinstated facts are healed by cheap
// delta-joins rather than their own support search — one pass suffices:
// a derivable pending fact either has base-visible support (its own
// check finds it) or depends on a reinstated fact (that fact's
// propagation derives it, whichever order the keys come up in). Rules
// are monotone and the base only shrank under retracts, so nothing
// outside pending can newly appear. Facts that stay underivable are the
// batch's retract notifications.
func (e *Engine) rederivePendingLocked(pending map[kg.TripleKey]kg.Triple, adds, rets []kg.Triple) ([]kg.Triple, []kg.Triple) {
	if len(pending) == 0 {
		return adds, rets
	}
	keys := make([]kg.TripleKey, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, kg.TripleKey.Compare)
	for _, k := range keys {
		if e.st.facts.Has(k) {
			// Reinstated by an assert's or an earlier repair's propagation
			// (which reported the visibility add already).
			delete(pending, k)
			continue
		}
		ht := pending[k]
		sup, ok := e.deriveSupport(ht)
		if !ok {
			continue
		}
		e.st.insert(ht, sup)
		e.derivations.Add(1)
		delete(pending, k)
		if !e.g.HasFact(ht.Subject, ht.Predicate, ht.Object) {
			// Reinstated: the subscription hub may have observed the
			// removed mid-state, so report the add even though the net
			// effect within this engine is "no change".
			adds = append(adds, ht)
		}
		adds = e.propagateLocked([]kg.Triple{ht}, adds)
	}
	for _, k := range keys {
		ht, waiting := pending[k]
		if !waiting || e.st.facts.Has(k) {
			continue
		}
		e.retractions.Add(1)
		if !e.g.HasFact(ht.Subject, ht.Predicate, ht.Object) {
			rets = append(rets, ht)
		}
	}
	return adds, rets
}

// deriveSupport searches for one currently valid derivation of h:
// a rule whose head unifies with h and a body solve (through the union
// view, i.e. against facts visible right now) whose grounding reproduces
// h's identity key. This is not the delta-join: a head variable is not a
// join, so a NaN it binds is derivable through a single body occurrence.
// Such bindings are left as free body variables and checked by the key
// comparison instead — substituted as constants they would match under
// SPO identity where a from-scratch derivation joins with Equal.
func (e *Engine) deriveSupport(h kg.Triple) (support, bool) {
	hk := h.IdentityKey()
	for ri, r := range e.rs.rules {
		theta, unified := graphengine.UnifyClause(r.Head, h)
		if !unified {
			continue
		}
		maps.DeleteFunc(theta, func(_ string, v kg.Value) bool { return !v.Equal(v) })
		sub, valid := graphengine.SubstituteClauses(r.Body, theta)
		if !valid {
			continue
		}
		var found support
		ok := false
		e.solve(sub, func(row graphengine.Binding) bool {
			maps.Copy(row, theta)
			if head, grounded := groundClause(r.Head, row); grounded && head.IdentityKey() == hk {
				found, ok = e.supportFor(ri, row)
			}
			return !ok
		})
		if ok {
			return found, true
		}
	}
	return support{}, false
}

// rederiveFullLocked rebuilds the rule-derived half of the store from
// scratch: the watermark is captured first, the store's rule facts are
// cleared (analytics facts are untouched — they are snapshot-stale by
// contract), each stratum is seeded by solving its rules' full bodies
// through the union view and drained through the propagation worklist,
// and finally the feed is reset to the pre-derivation watermark so
// mutations that landed mid-derivation are replayed (replay is
// idempotent: inserts dedup, cascades of unknown keys are no-ops).
func (e *Engine) rederiveFullLocked() {
	wm := e.g.LastSeq()
	e.fullRuns.Add(1)

	old := make(map[kg.TripleKey]kg.Triple)
	for p := range e.rs.heads {
		for _, t := range e.st.facts.Entries(p) {
			k := t.IdentityKey()
			if t, ok := e.st.remove(k); ok {
				old[k] = t
			}
		}
	}

	for _, stratum := range e.rs.strata {
		var work []kg.Triple
		for _, ri := range stratum {
			r := e.rs.rules[ri]
			e.solve(r.Body, func(row graphengine.Binding) bool {
				if head, ok := groundClause(r.Head, row); ok {
					if sup, ok := e.supportFor(ri, row); ok && e.st.insert(head, sup) {
						e.derivations.Add(1)
						work = append(work, head)
					}
				}
				return true
			})
		}
		// Drain recursion within (and, harmlessly, ahead into later)
		// strata. Visibility notifications are computed from the final
		// old/new diff below, not during propagation.
		e.propagateLocked(work, nil)
	}

	e.feed.Reset(wm)

	// Diff against the pre-rebuild contents for the hub: visibility only
	// changed for facts on exactly one side that the base does not also
	// assert.
	var adds, rets []kg.Triple
	for p := range e.rs.heads {
		for _, t := range e.st.facts.Entries(p) {
			k := t.IdentityKey()
			if _, had := old[k]; had {
				delete(old, k)
			} else if !e.g.HasFact(t.Subject, t.Predicate, t.Object) {
				adds = append(adds, t)
			}
		}
	}
	for _, t := range old {
		e.retractions.Add(1)
		if !e.g.HasFact(t.Subject, t.Predicate, t.Object) {
			rets = append(rets, t)
		}
	}
	e.notifyLocked(adds, rets)
}

// solve streams a conjunction's rows, until yield returns false, through
// the union of the graph and the store, so rule evaluation sees its own
// previously derived facts — the recursion that makes transitive closure
// converge. A structurally invalid residual stops at its error and derives
// nothing, matching the executor's treatment of the same query.
func (e *Engine) solve(clauses []graphengine.Clause, yield func(graphengine.Binding) bool) {
	for row, err := range e.view.StreamConjunctive(clauses, graphengine.QueryOptions{}) {
		if err != nil || !yield(row) {
			return
		}
	}
}

// groundClause instantiates a clause under a full binding. ok is false
// when a variable is unbound or the subject does not ground to an
// entity (a head subject bound to a literal derives nothing; body
// clauses are only grounded for support keys, where the solve already
// guaranteed entity subjects).
func groundClause(c graphengine.Clause, b graphengine.Binding) (kg.Triple, bool) {
	var t kg.Triple
	sv := c.Subject.Const
	if c.Subject.Var != "" {
		v, ok := b[c.Subject.Var]
		if !ok {
			return t, false
		}
		sv = v
	}
	if !sv.IsEntity() {
		return t, false
	}
	ov := c.Object.Const
	if c.Object.Var != "" {
		v, ok := b[c.Object.Var]
		if !ok {
			return t, false
		}
		ov = v
	}
	t = kg.Triple{Subject: sv.Entity, Predicate: c.Predicate, Object: ov}
	return t, true
}
