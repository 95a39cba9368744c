package graphengine

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"saga/internal/kg"
)

// Live subscriptions: standing conjunctive queries whose answer sets are
// kept current against the graph's changefeed. A hub goroutine (one per
// Engine, started lazily) pulls mutation batches through a single
// kg.Changefeed. A mutation touches a subscription when it unifies with
// one of its clauses (UnifyClause) — a dispatch index keyed by predicate
// and constant object (byKey) keeps every other standing query off the
// per-mutation path —
// and each touched subscription is re-solved once per batch, the
// difference between the fresh answer set and the held one going into
// the pending set. A mutation that unifies with no clause cannot change
// the answer set: every row matches each clause to one triple.
//
// The re-solve reads the live graph, which may be ahead of the batch
// being processed. A mutation it already reflects touches the
// subscription again when the feed reaches it, and that re-solve finds
// nothing new, so the held set equals a from-scratch solve once the feed
// drains — by construction, since it is one. A floor pass (log
// truncation) resets the cursor and re-solves every subscription.
//
// A tick costs what it touches, not the number of subscriptions: the
// smallest coalescing window is kept as subscriptions come and go
// (windows), only subscriptions holding undelivered deltas are visited
// by a flush (pending), and an untouched subscription's watermark is the
// hub's (wm), read when the subscription next has something to deliver.
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
	current   map[string]*subRow // answer set by key tuple
	solves    uint64             // re-solves so far; stamps subRow.seen
	applied   uint64             // watermark current reflects, or the hub's wm if later
	pendAdds  map[string]Binding
	pendRets  map[string]Binding
	pendWM    uint64    // watermark the pending delta reflects
	pendSince time.Time // when the oldest pending delta accumulated
	delivered uint64    // watermark of the last delivered event
	err       error
	done      bool
}

// subRow is one row of a subscription's answer set; seen is the re-solve
// that last produced it.
type subRow struct {
	b    Binding
	seen uint64
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
	byKey   map[dispatchKey]map[*Subscription]struct{}
	pending map[*Subscription]struct{} // the subscriptions holding deltas
	windows map[time.Duration]int      // subscriptions per coalescing window
	wm      uint64                     // the feed's cursor after the last poll
	feed    *kg.Changefeed
	running bool
	stop    chan struct{}

	evictions atomic.Int64

	// Re-solve scratch: a row's value keys and their encoding.
	keys []kg.ValueKey
	key  []byte
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
		current:  make(map[string]*subRow),
		pendAdds: make(map[string]Binding),
		pendRets: make(map[string]Binding),
	}
	s.C = s.ch

	// Solve the snapshot under the hub lock: the hub cannot process a
	// feed batch between the solve and the registration, so the first
	// delta event follows the snapshot with no gap and no overlap (the
	// hub skips mutations at or below the snapshot watermark via applied
	// anyway — a re-solve is idempotent — but the lock keeps the first
	// event's semantics exact). The snapshot is the first re-solve: every
	// row is new, so the pending set holds the whole answer set, and it
	// goes out as the Reset event.
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.running {
		// Open the hub's feed before reading the watermark: an open feed
		// at 0 keeps every entry in the log, so nothing past wm is dropped
		// before the feed is Reset to it.
		h.feed = e.g.Feed(0)
	}
	wm := e.g.LastSeq()
	s.applied = wm
	if h.subs == nil {
		h.subs = make(map[*Subscription]struct{})
		h.pending = make(map[*Subscription]struct{})
		h.windows = make(map[time.Duration]int)
	}
	if err := h.resolveLocked(s); err != nil {
		delete(h.pending, s)
		if !h.running {
			h.feed.Close()
		}
		return nil, err
	}
	s.sendPendingLocked(true)

	h.subs[s] = struct{}{}
	h.windows[opts.Coalesce]++
	h.indexLocked(s)
	if !h.running {
		h.feed.Reset(wm)
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
	h.removeLocked(s)
}

// removeLocked forgets a subscription that has ended.
func (h *subHub) removeLocked(s *Subscription) {
	delete(h.subs, s)
	delete(h.pending, s)
	if h.windows[s.opts.Coalesce]--; h.windows[s.opts.Coalesce] == 0 {
		delete(h.windows, s.opts.Coalesce)
	}
	h.unindexLocked(s)
}

// dispatchKey is where the dispatch index lists a clause: under its
// predicate and its object's key, the zero key for a variable object. A
// clause with a constant object unifies only with triples carrying that
// object.
type dispatchKey struct {
	pred kg.PredicateID
	obj  kg.ValueKey
}

func (c *Clause) dispatchKey() dispatchKey {
	if c.Object.Var != "" {
		return dispatchKey{pred: c.Predicate}
	}
	return dispatchKey{c.Predicate, c.Object.Const.MapKey()}
}

// indexLocked registers the subscription under every clause's dispatch
// key — the index pollLocked and the derived-delta path route mutations
// through, so a mutation batch only ever touches the subscriptions whose
// clauses could unify with it.
func (h *subHub) indexLocked(s *Subscription) {
	if h.byKey == nil {
		h.byKey = make(map[dispatchKey]map[*Subscription]struct{})
	}
	for i := range s.clauses {
		k := s.clauses[i].dispatchKey()
		set := h.byKey[k]
		if set == nil {
			set = make(map[*Subscription]struct{})
			h.byKey[k] = set
		}
		set[s] = struct{}{}
	}
}

// unindexLocked removes the subscription from the dispatch index.
func (h *subHub) unindexLocked(s *Subscription) {
	for i := range s.clauses {
		k := s.clauses[i].dispatchKey()
		if set := h.byKey[k]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(h.byKey, k)
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
		Evictions:   h.evictions.Load(),
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

// run is the hub goroutine: pull the changefeed, re-solve, flush due
// subscribers, reap closed ones. It exits, closing the feed, when every
// subscription is gone, and a later Subscribe starts a fresh one.
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
			h.feed.Close()
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
	for w := range h.windows {
		if w < min {
			min = w
		}
	}
	if min /= 2; min < time.Millisecond {
		min = time.Millisecond
	}
	return min
}

// pollLocked pulls the next mutation batch and re-solves the
// subscriptions it touches, once each. Dispatch is keyed: a mutation
// only visits the subscriptions with a clause over its predicate whose
// object is a variable or its object (byKey), so standing queries over
// other predicates or objects cost nothing per batch — not even a failed
// unify. The hub's watermark advances to the feed's cursor; the pending
// deltas' watermarks follow it. A floor pass re-solves every
// subscription.
func (h *subHub) pollLocked() {
	muts, complete := h.feed.Pull()
	stale := make(map[*Subscription]bool)
	if !complete {
		h.feed.Reset(h.e.g.LastSeq())
		for s := range h.subs {
			stale[s] = true
		}
	} else if len(muts) == 0 {
		return
	}
	for _, mu := range muts {
		h.touchLocked(stale, mu.T, mu.Seq)
	}
	for s := range stale {
		h.resolveLocked(s) // validated clauses, no cursor, no context: it cannot fail
	}
	h.wm = h.feed.Cursor()
	for s := range h.pending {
		s.notePendingLocked(h.wm)
	}
}

// touchLocked marks stale the subscriptions t may change: those with a
// clause t unifies with, among those whose answer set does not yet
// reflect seq (a mutation at or below the snapshot's watermark is in it
// already).
func (h *subHub) touchLocked(stale map[*Subscription]bool, t kg.Triple, seq uint64) {
	for _, k := range [2]dispatchKey{{pred: t.Predicate}, {t.Predicate, t.Object.MapKey()}} {
		for s := range h.byKey[k] {
			if stale[s] || seq <= s.applied {
				continue
			}
			for i := range s.clauses {
				if s.clauses[i].matches(t) {
					stale[s] = true
					break
				}
			}
		}
	}
}

// resolveLocked re-solves the standing query and merges the difference
// from the held answer set into the pending set. Rows are keyed by their
// values' ValueKeys straight off the stream: a row already held keeps
// its Binding, and only a new row builds one.
func (h *subHub) resolveLocked(s *Subscription) error {
	s.solves++
	for r, err := range h.e.StreamRows(s.clauses, QueryOptions{}) {
		if err != nil {
			return err
		}
		h.keys = h.keys[:0]
		for _, v := range r.Vals {
			h.keys = append(h.keys, v.MapKey())
		}
		h.key = appendKeyTuple(h.key[:0], h.keys)
		if row := s.current[string(h.key)]; row != nil {
			row.seen = s.solves
			continue
		}
		key, b := string(h.key), r.Binding()
		s.current[key] = &subRow{b: b, seen: s.solves}
		s.addPendingLocked(key, b, true)
	}
	for key, row := range s.current {
		if row.seen != s.solves {
			delete(s.current, key)
			s.addPendingLocked(key, row.b, false)
		}
	}
	s.notePendingLocked(max(s.applied, h.wm))
	return nil
}

// notePendingLocked advances the subscription's pending watermark and,
// if it holds deltas, lists it as pending and stamps the coalescing
// clock on the first delta of a window.
func (s *Subscription) notePendingLocked(wm uint64) {
	if wm > s.pendWM {
		s.pendWM = wm
	}
	if len(s.pendAdds)+len(s.pendRets) > 0 {
		s.hub.pending[s] = struct{}{}
		if s.pendSince.IsZero() {
			s.pendSince = time.Now()
		}
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

// sendPendingLocked delivers the pending delta as one event if the
// channel has room, and reports whether it did.
func (s *Subscription) sendPendingLocked(reset bool) bool {
	ev := SubscriptionEvent{
		Adds:      slices.AppendSeq(make([]Binding, 0, len(s.pendAdds)), maps.Values(s.pendAdds)),
		Retracts:  slices.AppendSeq(make([]Binding, 0, len(s.pendRets)), maps.Values(s.pendRets)),
		Watermark: s.pendWM,
		Reset:     reset,
	}
	sortBindingsByKey(ev.Adds)
	sortBindingsByKey(ev.Retracts)
	select {
	case s.ch <- ev:
		clear(s.pendAdds)
		clear(s.pendRets)
		s.pendSince = time.Time{}
		s.delivered = s.pendWM
		delete(s.hub.pending, s)
		return true
	default:
		return false
	}
}

// flushLocked emits due pending deltas and evicts subscribers whose
// pending sets outgrew their bound while their channels stayed full.
func (h *subHub) flushLocked() {
	now := time.Now()
	for s := range h.pending {
		n := len(s.pendAdds) + len(s.pendRets)
		if n == 0 {
			delete(h.pending, s) // an add and a retract cancelled
			continue
		}
		if now.Sub(s.pendSince) < s.opts.Coalesce || s.sendPendingLocked(false) {
			continue
		}
		// Channel full: keep accumulating. Past the bound, evict.
		if n > s.opts.MaxPending {
			s.err = ErrSlowSubscriber
			s.done = true
			close(s.ch)
			h.removeLocked(s)
			h.evictions.Add(1)
		}
	}
}

// UnifyClause matches one clause against a concrete triple and returns
// the variable substitution θ. Constants match under SPO identity; a
// variable in both positions must bind consistently (Equal semantics,
// matching the executor's join). The hub's touch filter and the rule
// engine's delta-join both start from it.
func UnifyClause(c Clause, t kg.Triple) (Binding, bool) {
	if !c.matches(t) {
		return nil, false
	}
	theta := make(Binding, 2)
	if c.Object.Var != "" {
		theta[c.Object.Var] = t.Object
	}
	if c.Subject.Var != "" {
		theta[c.Subject.Var] = kg.EntityValue(t.Subject)
	}
	return theta, true
}

// matches reports whether UnifyClause(*c, t) succeeds, building no
// substitution.
func (c *Clause) matches(t kg.Triple) bool {
	switch {
	case c.Predicate != t.Predicate,
		c.Subject.Var == "" && (!c.Subject.Const.IsEntity() || c.Subject.Const.Entity != t.Subject),
		c.Object.Var == "" && c.Object.Const.MapKey() != t.Object.MapKey(),
		c.Object.Var != "" && c.Object.Var == c.Subject.Var && !kg.EntityValue(t.Subject).Equal(t.Object):
		return false
	}
	return true
}
