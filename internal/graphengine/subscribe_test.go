package graphengine

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"saga/internal/kg"
)

// subClient mirrors a subscription's answer set by applying its event
// stream, enforcing the delivery invariants as it goes: the first event
// (and only the first) is a Reset snapshot, adds never duplicate a held
// binding, retracts never miss one, and each event's slices arrive
// sorted by key tuple.
type subClient struct {
	mu   sync.Mutex
	set  map[string]Binding
	err  error
	done chan struct{}
}

func bindingMapKey(b Binding) string {
	return string(appendKeyTuple(nil, BindingKey(b)))
}

func checkSorted(bs []Binding) error {
	for i := 1; i < len(bs); i++ {
		if compareKeyRows(BindingKey(bs[i-1]), BindingKey(bs[i])) >= 0 {
			return fmt.Errorf("event bindings not strictly sorted at %d", i)
		}
	}
	return nil
}

func runSubClient(sub *Subscription) *subClient {
	c := &subClient{set: make(map[string]Binding), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		first := true
		for ev := range sub.C {
			c.mu.Lock()
			if c.err == nil {
				c.err = c.applyLocked(ev, first)
			}
			c.mu.Unlock()
			first = false
		}
	}()
	return c
}

func (c *subClient) applyLocked(ev SubscriptionEvent, first bool) error {
	if first != ev.Reset {
		return fmt.Errorf("reset=%v on event first=%v", ev.Reset, first)
	}
	if err := checkSorted(ev.Adds); err != nil {
		return fmt.Errorf("adds: %w", err)
	}
	if err := checkSorted(ev.Retracts); err != nil {
		return fmt.Errorf("retracts: %w", err)
	}
	if ev.Reset {
		if len(ev.Retracts) != 0 {
			return errors.New("reset event carried retracts")
		}
		c.set = make(map[string]Binding, len(ev.Adds))
	}
	for _, b := range ev.Retracts {
		key := bindingMapKey(b)
		if _, ok := c.set[key]; !ok {
			return fmt.Errorf("retract of binding never delivered: %v", b)
		}
		delete(c.set, key)
	}
	for _, b := range ev.Adds {
		key := bindingMapKey(b)
		if _, ok := c.set[key]; ok {
			return fmt.Errorf("duplicate add of held binding: %v", b)
		}
		c.set[key] = b
	}
	return nil
}

// snapshot returns a copy of the mirrored set and any invariant error.
func (c *subClient) snapshot() (map[string]Binding, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Binding, len(c.set))
	for k, v := range c.set {
		out[k] = v
	}
	return out, c.err
}

// TestSubscriptionConvergesUnderConcurrentWriter races a mutating
// writer against several live subscriptions and requires every
// subscriber's mirrored answer set — built purely from delta events —
// to converge to a from-scratch solve at quiescence, with no duplicate
// adds and no unmatched retracts along the way. Run under -race this is
// also the subsystem's concurrency test.
func TestSubscriptionConvergesUnderConcurrentWriter(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			g, ents, preds := newOverlayWorld(t)
			mutateOverlayWorld(t, g, rand.New(rand.NewSource(seed)), 120)
			eng := New(g)

			queries := overlayQueries(ents, preds)[:6]
			subs := make([]*Subscription, len(queries))
			clients := make([]*subClient, len(queries))
			for i, q := range queries {
				sub, err := eng.Subscribe(q, SubscribeOptions{Coalesce: 2 * time.Millisecond})
				if err != nil {
					t.Fatalf("Subscribe(q%d): %v", i, err)
				}
				defer sub.Close()
				subs[i] = sub
				clients[i] = runSubClient(sub)
			}

			// Concurrent writer: same workload shape as the overlay tests,
			// yielding now and then so hub polls interleave mid-history.
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				m := &ovMutator{t: t, g: g, rng: rand.New(rand.NewSource(seed * 101))}
				for i := 0; i < 600; i++ {
					m.step()
					if i%40 == 39 {
						time.Sleep(time.Millisecond)
					}
				}
			}()
			<-writerDone

			// Quiescence: every mirror must settle on the live answer set.
			for i, q := range queries {
				want := make(map[string]Binding)
				rows, err := eng.QueryConjunctive(q)
				if err != nil {
					t.Fatalf("quiescent solve q%d: %v", i, err)
				}
				for _, b := range rows {
					want[bindingMapKey(b)] = b
				}
				deadline := time.Now().Add(10 * time.Second)
				for {
					got, cerr := clients[i].snapshot()
					if cerr != nil {
						t.Fatalf("q%d: delivery invariant violated: %v", i, cerr)
					}
					if setsMatch(want, got) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("q%d: mirror never converged: %d bindings, want %d", i, len(got), len(want))
					}
					time.Sleep(2 * time.Millisecond)
				}
			}

			// Clean shutdown: Close ends delivery with a nil Err.
			for i, sub := range subs {
				sub.Close()
				<-clients[i].done
				if err := sub.Err(); err != nil {
					t.Fatalf("q%d: Err after Close: %v", i, err)
				}
			}
			if st := eng.SubscriptionStats(); st.Subscribers != 0 || st.Evictions != 0 {
				t.Fatalf("stats after close: %+v", st)
			}
		})
	}
}

func setsMatch(want, got map[string]Binding) bool {
	if len(want) != len(got) {
		return false
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			return false
		}
	}
	return true
}

// TestSubscriptionDeltaEvents pins the basic delta semantics end to end:
// snapshot, incremental add, cancellation inside one coalescing window,
// and incremental retract.
func TestSubscriptionDeltaEvents(t *testing.T) {
	g, ents, preds := newOverlayWorld(t)
	seedTr := kg.Triple{Subject: ents[0], Predicate: preds[0], Object: kg.EntityValue(ents[1])}
	if err := g.Assert(seedTr); err != nil {
		t.Fatal(err)
	}
	eng := New(g)
	sub, err := eng.Subscribe(
		[]Clause{{Subject: V("x"), Predicate: preds[0], Object: V("y")}},
		SubscribeOptions{Coalesce: time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ev := <-sub.C
	if !ev.Reset || len(ev.Adds) != 1 || len(ev.Retracts) != 0 {
		t.Fatalf("snapshot event: %+v", ev)
	}
	if ev.Watermark != g.LastSeq() {
		t.Fatalf("snapshot watermark %d, want %d", ev.Watermark, g.LastSeq())
	}

	tr := kg.Triple{Subject: ents[2], Predicate: preds[0], Object: kg.IntValue(7)}
	if err := g.Assert(tr); err != nil {
		t.Fatal(err)
	}
	ev = <-sub.C
	if ev.Reset || len(ev.Adds) != 1 || len(ev.Retracts) != 0 {
		t.Fatalf("add event: %+v", ev)
	}
	if got := ev.Adds[0]; got["x"].Entity != ents[2] || !got["y"].Equal(kg.IntValue(7)) {
		t.Fatalf("add binding: %v", got)
	}
	if ev.Watermark != g.LastSeq() {
		t.Fatalf("add watermark %d, want %d", ev.Watermark, g.LastSeq())
	}

	if !g.Retract(tr) {
		t.Fatal("retract failed")
	}
	ev = <-sub.C
	if len(ev.Adds) != 0 || len(ev.Retracts) != 1 {
		t.Fatalf("retract event: %+v", ev)
	}
	if got := ev.Retracts[0]; got["x"].Entity != ents[2] {
		t.Fatalf("retract binding: %v", got)
	}
}

// TestSubscriptionSlowClientEvicted: a subscriber that never drains its
// channel is evicted once its pending delta outgrows MaxPending — the
// channel closes, Err reports ErrSlowSubscriber, and the hub counts the
// eviction.
func TestSubscriptionSlowClientEvicted(t *testing.T) {
	g, ents, preds := newOverlayWorld(t)
	eng := New(g)
	sub, err := eng.Subscribe(
		[]Clause{{Subject: V("x"), Predicate: preds[0], Object: V("y")}},
		SubscribeOptions{Buffer: 1, Coalesce: time.Millisecond, MaxPending: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Never read: the buffered Reset event keeps the channel full while
	// distinct adds pile into the pending set.
	for i := 0; i < 64; i++ {
		if err := g.Assert(kg.Triple{Subject: ents[0], Predicate: preds[0], Object: kg.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.SubscriptionStats().Evictions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow subscriber never evicted: %+v", eng.SubscriptionStats())
		}
		time.Sleep(time.Millisecond)
	}

	ev, ok := <-sub.C // the buffered snapshot
	if !ok || !ev.Reset {
		t.Fatalf("first receive: ok=%v ev=%+v", ok, ev)
	}
	for range sub.C { // drain to the close
	}
	if !errors.Is(sub.Err(), ErrSlowSubscriber) {
		t.Fatalf("Err after eviction: %v", sub.Err())
	}
	st := eng.SubscriptionStats()
	if st.Subscribers != 0 || st.Evictions != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	sub.Close() // must be a no-op on an evicted subscription
}

// TestSubscriptionNaNJoinMatchesFromScratch: a NaN never joins (Equal
// semantics), so a standing query joined on ?x must not gain a row when
// both sides assert NaN with identical bits — substituting the NaN as a
// constant would match it under SPO identity — while a variable that
// occurs once must still deliver it. Every mirror ends equal to a fresh
// solve. A row over an ordinary value, asserted last, marks the point by
// which each subscriber has heard everything before it.
func TestSubscriptionNaNJoinMatchesFromScratch(t *testing.T) {
	g, ents, preds := newOverlayWorld(t)
	eng := New(g)
	p, q := preds[0], preds[1]
	queries := []struct {
		name    string
		clauses []Clause
		rows    int
	}{
		{"join", []Clause{{Subject: V("a"), Predicate: p, Object: V("x")}, {Subject: V("b"), Predicate: q, Object: V("x")}}, 1},
		{"single-p", []Clause{{Subject: V("a"), Predicate: p, Object: V("x")}}, 2},
		{"single-q", []Clause{{Subject: V("b"), Predicate: q, Object: V("x")}}, 2},
	}
	clients := make([]*subClient, len(queries))
	for i, qu := range queries {
		sub, err := eng.Subscribe(qu.clauses, SubscribeOptions{Coalesce: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		clients[i] = runSubClient(sub)
	}
	// waitFor blocks until client i's mirror holds a row binding x to v.
	waitFor := func(i int, v kg.Value) map[string]Binding {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			got, err := clients[i].snapshot()
			if err != nil {
				t.Fatalf("%s: delivery invariant violated: %v", queries[i].name, err)
			}
			for _, b := range got {
				if b["x"].MapKey() == v.MapKey() {
					return got
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: no row with x=%v delivered", queries[i].name, v)
			}
			time.Sleep(time.Millisecond)
		}
	}
	assert := func(s kg.EntityID, pred kg.PredicateID, o kg.Value) {
		t.Helper()
		if err := g.Assert(kg.Triple{Subject: s, Predicate: pred, Object: o}); err != nil {
			t.Fatal(err)
		}
	}

	nan, seven := kg.FloatValue(math.NaN()), kg.IntValue(7)
	assert(ents[2], q, nan)
	waitFor(2, nan) // the hub has consumed the first NaN before the second arrives
	assert(ents[1], p, nan)
	assert(ents[3], p, seven)
	assert(ents[2], q, seven)
	for i, qu := range queries {
		got := waitFor(i, seven)
		rows, err := eng.QueryConjunctive(qu.clauses)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != qu.rows {
			t.Fatalf("%s: fresh solve has %d rows, want %d", qu.name, len(rows), qu.rows)
		}
		want := make(map[string]Binding, len(rows))
		for _, b := range rows {
			want[bindingMapKey(b)] = b
		}
		if !setsMatch(want, got) {
			t.Fatalf("%s: mirror holds %v, a fresh solve %v", qu.name, slices.Collect(maps.Values(got)), rows)
		}
	}
}
