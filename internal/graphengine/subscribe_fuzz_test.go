package graphengine

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"saga/internal/kg"
)

// mirrorEntities is the size of FuzzSubscriptionMirror's graph.
const mirrorEntities = 8

// mirrorShapes are the standing queries FuzzSubscriptionMirror holds:
// a constant subject, a constant entity object, a literal constant, a
// self-join, 2-clause joins through an entity and through a value that
// may be a literal (or a NaN, which never joins), and a 3-clause chain.
func mirrorShapes(ents []kg.EntityID, p, q kg.PredicateID) [][]Clause {
	return [][]Clause{
		{{Subject: CE(ents[0]), Predicate: p, Object: V("o")}},
		{{Subject: V("s"), Predicate: q, Object: CE(ents[1])}},
		{{Subject: V("s"), Predicate: p, Object: C(kg.IntValue(1))}},
		{{Subject: V("x"), Predicate: p, Object: V("x")}},
		{{Subject: V("a"), Predicate: p, Object: V("b")}, {Subject: V("b"), Predicate: q, Object: V("c")}},
		{{Subject: V("a"), Predicate: p, Object: V("x")}, {Subject: V("b"), Predicate: q, Object: V("x")}},
		{{Subject: V("a"), Predicate: p, Object: V("b")}, {Subject: V("b"), Predicate: p, Object: V("c")}, {Subject: V("c"), Predicate: q, Object: V("d")}},
	}
}

// FuzzSubscriptionMirror drives the subscription hub with byte-coded
// asserts and retracts over an 8-entity graph. The test owns the hub: no
// hub goroutine runs, and at each batch boundary the test calls the
// hub's poll and flush itself and drains every channel, without
// sleeping. Each subscriber's mirror, built only from the delivered
// events (first a Reset, each event sorted, no duplicate add, no retract
// of an unheld row), must then equal a from-scratch StreamRows solve,
// and an event must carry the graph's watermark.
//
// Each op is three bytes: kind and predicate, subject, object. Kinds are
// assert (twice as likely), retract of a live fact and batch end; the
// objects are the 8 entities, an int, a string, a bool and a NaN.
func FuzzSubscriptionMirror(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 0, 4, 1, 1, 3, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 2, 2, 4, 2, 11, 0, 3, 11, 3, 0, 0, 6, 0, 0, 3, 0, 0, 6, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 2, 4, 2, 9, 0, 3, 8, 3, 0, 0, 2, 1, 0, 3, 0, 0})
	rng := rand.New(rand.NewSource(35))
	for range 6 {
		b := make([]byte, 3*(20+rng.Intn(60)))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			return
		}
		g := kg.NewGraph()
		ents := make([]kg.EntityID, mirrorEntities)
		objects := make([]kg.Value, 0, mirrorEntities+4)
		for i := range ents {
			id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			ents[i] = id
			objects = append(objects, kg.EntityValue(id))
		}
		objects = append(objects, kg.IntValue(1), kg.StringValue("a"), kg.BoolValue(true), kg.FloatValue(math.NaN()))
		p, err := g.AddPredicate(kg.Predicate{Name: "p"})
		if err != nil {
			t.Fatal(err)
		}
		q, err := g.AddPredicate(kg.Predicate{Name: "q"})
		if err != nil {
			t.Fatal(err)
		}
		preds := []kg.PredicateID{p, q}

		e := New(g)
		h := e.subHub()
		h.feed = g.Feed(0)
		h.running = true // so Subscribe starts no hub goroutine
		defer h.feed.Close()

		shapes := mirrorShapes(ents, p, q)
		subs := make([]*Subscription, len(shapes))
		mirrors := make([]*subClient, len(shapes))
		for i, c := range shapes {
			sub, err := e.Subscribe(c, SubscribeOptions{Coalesce: time.Nanosecond, MaxPending: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = sub
			mirrors[i] = &subClient{set: make(map[string]Binding)}
		}
		first := make([]bool, len(shapes))
		for i := range first {
			first[i] = true
		}

		batch := func() {
			t.Helper()
			h.mu.Lock()
			h.pollLocked()
			h.flushLocked()
			h.mu.Unlock()
			for i, sub := range subs {
				for len(sub.C) > 0 {
					ev := <-sub.C
					if !ev.Reset && ev.Watermark != g.LastSeq() {
						t.Fatalf("q%d: event watermark %d, graph at %d", i, ev.Watermark, g.LastSeq())
					}
					if err := mirrors[i].applyLocked(ev, first[i]); err != nil {
						t.Fatalf("q%d: %v", i, err)
					}
					first[i] = false
				}
				want := make(map[string]Binding)
				for r, err := range e.StreamRows(shapes[i], QueryOptions{}) {
					if err != nil {
						t.Fatal(err)
					}
					want[string(appendKeyTuple(nil, r.Key()))] = r.Binding()
				}
				if !setsMatch(want, mirrors[i].set) {
					t.Fatalf("q%d: mirror holds %v, a fresh solve %v", i,
						slices.Collect(maps.Values(mirrors[i].set)), slices.Collect(maps.Values(want)))
				}
			}
		}

		var live []kg.Triple
		for len(ops) >= 3 {
			op, s, o := ops[0], ops[1], ops[2]
			ops = ops[3:]
			switch op % 4 {
			case 0, 1:
				tr := kg.Triple{Subject: ents[int(s)%len(ents)], Predicate: preds[int(op>>2)%len(preds)], Object: objects[int(o)%len(objects)]}
				added, err := g.AssertNew(tr)
				if err != nil {
					t.Fatal(err)
				}
				if added {
					live = append(live, tr)
				}
			case 2:
				if len(live) == 0 {
					continue
				}
				i := (int(s)<<8 | int(o)) % len(live)
				if !g.Retract(live[i]) {
					t.Fatalf("retract of live fact %v failed", live[i])
				}
				live = slices.Delete(live, i, i+1)
			case 3:
				batch()
			}
		}
		batch()
	})
}
