package graphengine

import (
	"errors"
	"sync"
	"time"

	"saga/internal/kg"
	"saga/internal/metrics"
)

// Live subscriptions: standing conjunctive queries whose answer sets are
// maintained incrementally against the graph's changefeed. A hub
// goroutine (one per Engine, started lazily) pulls mutation batches
// through a single kg.Changefeed and delta-joins each mutation against
// the subscriptions whose clauses mention the mutation's predicate — a
// predicate-keyed dispatch index (byPred) keeps every other standing
// query entirely off the per-mutation path:
//
//   - an assert that θ-unifies with a clause triggers a residual solve
//     of the other clauses with θ substituted (DeltaRows, the delta-join
//     the rule engine shares), adding bindings the subscriber has not
//     seen;
//   - a retract grounds against the current answer set: bindings whose
//     grounded clause instances include the retracted triple are
//     re-verified clause by clause (HasFact) and retracted if dead.
//
// Residual solves and re-verification run against the live graph, which
// may be ahead of the mutation being processed; both operations are
// convergent — a binding is only added if it holds now, only removed if
// it fails now — so the maintained set always matches a from-scratch
// solve once the feed drains. If the changefeed reports a floor pass
// (log truncation), the hub resets the cursor and falls back to a full
// re-solve per subscription, emitting the difference.
//
// Delivery is per-subscriber: events coalesce for a configurable window,
// adds and retracts of the same binding cancel in the pending set, a
// full channel leaves the pending set accumulating (backpressure), and
// a subscriber whose pending set outgrows its bound is evicted — its
// channel closes and Err reports ErrSlowSubscriber.

// ErrSlowSubscriber is reported by Subscription.Err after the hub
// evicted the subscriber because its pending delta outgrew MaxPending
// while its channel stayed full.
var ErrSlowSubscriber = errors.New("graphengine: subscriber evicted: pending delta exceeded MaxPending")

// Defaults for SubscribeOptions zero fields.
const (
	defaultSubBuffer     = 16
	defaultSubCoalesce   = 10 * time.Millisecond
	defaultSubMaxPending = 4096
)

// SubscribeOptions configure one subscription. The zero value is ready
// to use.
type SubscribeOptions struct {
	// Buffer is the event channel's capacity (default 16, minimum 1 —
	// the initial snapshot event must always fit).
	Buffer int

	// Coalesce is how long deltas accumulate before an event is
	// emitted (default 10ms). A longer window batches more mutations
	// per event and lets more add/retract pairs cancel.
	Coalesce time.Duration

	// MaxPending bounds the undelivered delta (adds + retracts) the
	// hub buffers for this subscriber while its channel is full;
	// beyond it the subscriber is evicted (default 4096).
	MaxPending int
}

// SubscriptionEvent is one incremental update to a standing query's
// answer set. Adds and Retracts are disjoint and each sorted by the
// bindings' key tuples. Watermark is the mutation sequence the answer
// set now reflects. The first event on every subscription has Reset
// set: its Adds carry the full answer set at Watermark.
type SubscriptionEvent struct {
	Adds      []Binding
	Retracts  []Binding
	Watermark uint64
	Reset     bool
}

// Subscription is a live standing query. Read events from C; the
// channel closes when the subscription ends (Close, or eviction — Err
// distinguishes the two).
type Subscription struct {
	// C delivers the answer-set deltas, starting with the Reset
	// snapshot event.
	C <-chan SubscriptionEvent

	clauses []Clause
	ch      chan SubscriptionEvent
	opts    SubscribeOptions
	hub     *subHub

	// Hub-owned state, guarded by the hub's mutex.
	current   map[string]Binding // answer set by key tuple
	applied   uint64             // watermark current reflects
	pendAdds  map[string]Binding
	pendRets  map[string]Binding
	pendWM    uint64    // watermark the pending delta reflects
	pendSince time.Time // when the oldest pending delta accumulated
	delivered uint64    // watermark of the last delivered event
	err       error
	done      bool
}

// Vars returns the standing query's variable names in sorted order — the
// key set of every binding the subscription delivers.
func (s *Subscription) Vars() []string { return queryVars(s.clauses) }

// Err reports why the subscription ended: nil after Close,
// ErrSlowSubscriber after eviction. Valid once C is closed.
func (s *Subscription) Err() error { return s.err }

// subHub is the per-Engine subscription dispatcher: one changefeed, one
// goroutine, all registered subscriptions.
type subHub struct {
	e *Engine

	mu      sync.Mutex
	subs    map[*Subscription]struct{}
	byPred  map[kg.PredicateID]map[*Subscription]struct{}
	feed    *kg.Changefeed
	running bool
	stop    chan struct{}

	evictions metrics.Counter
}

// SubscriptionStats is a point-in-time snapshot of the Engine's
// subscription hub, for the health surface.
type SubscriptionStats struct {
	// Subscribers is the number of live subscriptions.
	Subscribers int
	// SlowestLag is the largest gap, in mutation sequence numbers,
	// between the graph's watermark and a subscriber's last delivered
	// event.
	SlowestLag uint64
	// Evictions counts subscribers dropped for falling too far behind,
	// over the Engine's lifetime.
	Evictions int64
}

// Subscribe registers a standing conjunctive query. The full answer set
// is solved immediately and delivered as the first event (Reset set);
// subsequent events carry incremental adds and retracts as the graph
// mutates. Close the subscription to stop delivery and release the
// slot; a subscriber that stops draining C and overflows its pending
// bound is evicted (see ErrSlowSubscriber).
func (e *Engine) Subscribe(clauses []Clause, opts SubscribeOptions) (*Subscription, error) {
	if err := validateClauses(clauses); err != nil {
		return nil, err
	}
	if opts.Buffer < 1 {
		opts.Buffer = defaultSubBuffer
	}
	if opts.Coalesce <= 0 {
		opts.Coalesce = defaultSubCoalesce
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = defaultSubMaxPending
	}
	h := e.subHub()
	s := &Subscription{
		clauses:  clauses,
		ch:       make(chan SubscriptionEvent, opts.Buffer),
		opts:     opts,
		hub:      h,
		current:  make(map[string]Binding),
		pendAdds: make(map[string]Binding),
		pendRets: make(map[string]Binding),
	}
	s.C = s.ch

	// Solve the snapshot under the hub lock: the hub cannot process a
	// feed batch between the solve and the registration, so the first
	// delta event follows the snapshot with no gap and no overlap (the
	// hub skips mutations at or below the snapshot watermark via the
	// delivered/pending watermark anyway — processing is idempotent —
	// but the lock keeps the first event's semantics exact).
	h.mu.Lock()
	defer h.mu.Unlock()
	wm := e.g.LastSeq()
	var adds []Binding
	for b, err := range e.StreamConjunctive(clauses, QueryOptions{}) {
		if err != nil {
			return nil, err
		}
		s.current[string(appendKeyTuple(nil, BindingKey(b)))] = b
		adds = append(adds, b)
	}
	sortBindingsByKey(adds)
	s.applied, s.delivered = wm, wm
	s.ch <- SubscriptionEvent{Adds: adds, Watermark: wm, Reset: true}

	if h.subs == nil {
		h.subs = make(map[*Subscription]struct{})
	}
	h.subs[s] = struct{}{}
	h.indexLocked(s)
	if !h.running {
		h.feed = e.g.Feed(wm)
		h.stop = make(chan struct{})
		h.running = true
		go h.run(h.stop)
	}
	return s, nil
}

// Close ends the subscription: the hub stops maintaining its answer set
// and the channel closes after any in-flight event drains. Closing an
// already closed (or evicted) subscription is a no-op.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	close(s.ch)
	delete(h.subs, s)
	h.unindexLocked(s)
}

// indexLocked registers the subscription under every predicate its
// clauses mention — the dispatch index pollLocked and the derived-delta
// path route mutations through, so a mutation batch only ever touches
// the subscriptions whose clauses could unify with it.
func (h *subHub) indexLocked(s *Subscription) {
	if h.byPred == nil {
		h.byPred = make(map[kg.PredicateID]map[*Subscription]struct{})
	}
	for _, c := range s.clauses {
		set := h.byPred[c.Predicate]
		if set == nil {
			set = make(map[*Subscription]struct{})
			h.byPred[c.Predicate] = set
		}
		set[s] = struct{}{}
	}
}

// unindexLocked removes the subscription from the dispatch index.
func (h *subHub) unindexLocked(s *Subscription) {
	for _, c := range s.clauses {
		if set := h.byPred[c.Predicate]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(h.byPred, c.Predicate)
			}
		}
	}
}

// SubscriptionStats snapshots the hub. Engines with no subscriptions
// report zeros.
func (e *Engine) SubscriptionStats() SubscriptionStats {
	e.mu.Lock()
	h := e.hub
	e.mu.Unlock()
	if h == nil {
		return SubscriptionStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := SubscriptionStats{
		Subscribers: len(h.subs),
		Evictions:   h.evictions.Value(),
	}
	wm := h.e.g.LastSeq()
	for s := range h.subs {
		if lag := wm - s.delivered; lag > st.SlowestLag {
			st.SlowestLag = lag
		}
	}
	return st
}

// subHub returns the Engine's hub, creating it on first use.
func (e *Engine) subHub() *subHub {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hub == nil {
		e.hub = &subHub{e: e}
	}
	return e.hub
}

// run is the hub goroutine: pull the changefeed, delta-join, flush due
// subscribers, reap closed ones. It exits when every subscription is
// gone, and a later Subscribe starts a fresh one.
func (h *subHub) run(stop chan struct{}) {
	tick := time.NewTicker(h.tickInterval())
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		h.mu.Lock()
		if len(h.subs) == 0 {
			h.running = false
			h.mu.Unlock()
			return
		}
		h.pollLocked()
		h.flushLocked()
		h.mu.Unlock()
		tick.Reset(h.tickInterval())
	}
}

// tickInterval is the poll period: half the smallest coalescing window,
// bounded below.
func (h *subHub) tickInterval() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	min := defaultSubCoalesce
	for s := range h.subs {
		if s.opts.Coalesce < min {
			min = s.opts.Coalesce
		}
	}
	if min /= 2; min < time.Millisecond {
		min = time.Millisecond
	}
	return min
}

// pollLocked pulls the next mutation batch and merges its deltas into
// the affected subscriptions' pending sets. Dispatch is predicate-keyed:
// each mutation only visits the subscriptions whose clauses mention its
// predicate (byPred), so standing queries over other predicates cost
// zero per batch — not even a failed unify. Every subscription still
// advances its applied watermark: a mutation whose predicate no clause
// mentions cannot change any answer set. A floor pass falls back to a
// full re-solve per subscription.
func (h *subHub) pollLocked() {
	muts, complete := h.feed.Pull()
	if !complete {
		h.feed.Reset(h.e.g.LastSeq())
		for s := range h.subs {
			h.resolveFullLocked(s, h.feed.Cursor())
		}
		return
	}
	if len(muts) == 0 {
		return
	}
	g := h.e.read()
	for _, mu := range muts {
		// An assert retracted again since adds nothing: the delta-join
		// solves against the current graph and is told only of facts that
		// hold.
		if mu.Op == kg.OpAssert && !g.HasFact(mu.T.Subject, mu.T.Predicate, mu.T.Object) {
			continue
		}
		for s := range h.byPred[mu.T.Predicate] {
			// Mutations at or below the subscription's snapshot (or
			// fallback re-solve) watermark are already reflected.
			if mu.Seq <= s.applied {
				continue
			}
			switch mu.Op {
			case kg.OpAssert:
				h.deltaAssertLocked(s, mu.T)
			case kg.OpRetract:
				h.deltaRetractLocked(s, mu.T)
			}
		}
	}
	wm := h.feed.Cursor()
	for s := range h.subs {
		if wm > s.applied {
			s.applied = wm
		}
		s.notePendingLocked(s.applied)
	}
}

// notePendingLocked advances the subscription's pending watermark and
// stamps the coalescing clock on the first delta of a window.
func (s *Subscription) notePendingLocked(wm uint64) {
	if wm > s.pendWM {
		s.pendWM = wm
	}
	if s.pendSince.IsZero() && len(s.pendAdds)+len(s.pendRets) > 0 {
		s.pendSince = time.Now()
	}
}

// deltaAssertLocked joins one asserted triple against the standing
// query: every clause it unifies with contributes the rows that use it
// there (DeltaRows), extending the answer set. The caller has checked
// that t still holds.
func (h *subHub) deltaAssertLocked(s *Subscription, t kg.Triple) {
	for i := range s.clauses {
		for full := range DeltaRows(s.clauses, i, t, h.solve) {
			key := string(appendKeyTuple(nil, BindingKey(full)))
			if _, have := s.current[key]; have {
				continue
			}
			s.current[key] = full
			s.addPendingLocked(key, full, true)
		}
	}
}

// solve streams a residual conjunction's rows through the Engine's plan
// cache (the substituted shape is cached like any other), until yield
// returns false or the stream errs.
func (h *subHub) solve(clauses []Clause, yield func(Binding) bool) {
	for b, err := range h.e.StreamConjunctive(clauses, QueryOptions{}) {
		if err != nil || !yield(b) {
			return
		}
	}
}

// deltaRetractLocked removes answer-set bindings the retracted triple
// supported: bindings grounding some clause to exactly this triple are
// re-verified clause by clause and retracted if any grounded instance
// is gone.
func (h *subHub) deltaRetractLocked(s *Subscription, t kg.Triple) {
	tk := t.IdentityKey()
	for key, b := range s.current {
		if !bindingGrounds(s.clauses, b, tk) {
			continue
		}
		if bindingHolds(h.e.read(), s.clauses, b) {
			continue
		}
		delete(s.current, key)
		s.addPendingLocked(key, b, false)
	}
}

// addPendingLocked merges one delta into the pending set; an add and a
// retract of the same binding cancel.
func (s *Subscription) addPendingLocked(key string, b Binding, add bool) {
	if add {
		if _, ok := s.pendRets[key]; ok {
			delete(s.pendRets, key)
			return
		}
		s.pendAdds[key] = b
		return
	}
	if _, ok := s.pendAdds[key]; ok {
		delete(s.pendAdds, key)
		return
	}
	s.pendRets[key] = b
}

// resolveFullLocked recomputes the answer set from scratch (the floor-
// pass fallback) and merges the difference into the pending set.
func (h *subHub) resolveFullLocked(s *Subscription, wm uint64) {
	fresh := make(map[string]Binding)
	for b, err := range h.e.StreamConjunctive(s.clauses, QueryOptions{}) {
		if err != nil {
			return // leave current as-is; next pass retries
		}
		fresh[string(appendKeyTuple(nil, BindingKey(b)))] = b
	}
	for key, b := range fresh {
		if _, have := s.current[key]; !have {
			s.addPendingLocked(key, b, true)
		}
	}
	for key, b := range s.current {
		if _, still := fresh[key]; !still {
			s.addPendingLocked(key, b, false)
		}
	}
	s.current = fresh
	s.applied = wm
	s.notePendingLocked(wm)
}

// flushLocked emits due pending deltas and evicts subscribers whose
// pending sets outgrew their bound while their channels stayed full.
func (h *subHub) flushLocked() {
	now := time.Now()
	for s := range h.subs {
		n := len(s.pendAdds) + len(s.pendRets)
		if n == 0 {
			continue
		}
		if now.Sub(s.pendSince) < s.opts.Coalesce {
			continue
		}
		ev := SubscriptionEvent{
			Adds:      make([]Binding, 0, len(s.pendAdds)),
			Retracts:  make([]Binding, 0, len(s.pendRets)),
			Watermark: s.pendWM,
		}
		for _, b := range s.pendAdds {
			ev.Adds = append(ev.Adds, b)
		}
		for _, b := range s.pendRets {
			ev.Retracts = append(ev.Retracts, b)
		}
		sortBindingsByKey(ev.Adds)
		sortBindingsByKey(ev.Retracts)
		select {
		case s.ch <- ev:
			s.pendAdds = make(map[string]Binding)
			s.pendRets = make(map[string]Binding)
			s.pendSince = time.Time{}
			s.delivered = s.pendWM
		default:
			// Channel full: keep accumulating. Past the bound, evict.
			if n > s.opts.MaxPending {
				s.err = ErrSlowSubscriber
				s.done = true
				close(s.ch)
				delete(h.subs, s)
				h.unindexLocked(s)
				h.evictions.Inc()
			}
		}
	}
}

// bindingGrounds reports whether some clause, grounded under the
// complete binding b, is exactly the triple with identity tk.
func bindingGrounds(clauses []Clause, b Binding, tk kg.TripleKey) bool {
	for _, c := range clauses {
		sv, ok := resolve(c.Subject, b)
		if !ok || !sv.IsEntity() {
			continue
		}
		ov, ok := resolve(c.Object, b)
		if !ok {
			continue
		}
		if (kg.TripleKey{Subject: sv.Entity, Predicate: c.Predicate, Object: ov.MapKey()}) == tk {
			return true
		}
	}
	return false
}

// bindingHolds re-verifies a complete binding: every clause's grounded
// instance must still be asserted. It takes the solver's read surface so
// a clause over a derived predicate verifies against the union view.
func bindingHolds(g conjGraph, clauses []Clause, b Binding) bool {
	for _, c := range clauses {
		sv, ok := resolve(c.Subject, b)
		if !ok || !sv.IsEntity() {
			return false
		}
		ov, ok := resolve(c.Object, b)
		if !ok {
			return false
		}
		if !g.HasFact(sv.Entity, c.Predicate, ov) {
			return false
		}
	}
	return true
}
