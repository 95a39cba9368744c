package repro_test

import (
	"fmt"
	"testing"
	"time"

	"saga/internal/graphengine"
	"saga/internal/kg"
)

// BenchmarkE18Subscribe measures the live-subscription hub (experiment
// E18, report-only — excluded from the benchcmp gate; every number
// below includes a real coalescing wait, so wall-clock jitter swamps
// the 20% threshold).
//
// Each case registers a population of standing conjunctive queries,
// then times the end-to-end delivery latency of a single mutation: the
// writer asserts (or retracts) a membership triple matching exactly one
// "probe" subscription and blocks until that subscriber's event
// arrives. The hub visits only the queries indexed under the mutation's
// predicate and object, and a tick only the subscriptions holding
// deltas, so the subs=1000 vs subs=10000 pair checks that the idle
// population costs nothing per write: both sit on a latency floor of
// roughly 1.5x the probe's coalescing window (tick interval is half the
// window).
//
// The answers=N pair prices the re-solve: one subscription whose answer
// set already holds N rows, touched by every write, so each
// notification pays for the whole answer set. No end-to-end workload
// holds a standing answer set past a few dozen rows.
//
// The coalesce sweep holds the population at 1000 and widens the
// probe's window: latency should track the window near-linearly, which
// is the knob's whole trade — batching and add/retract cancellation
// bought with staleness.
func BenchmarkE18Subscribe(b *testing.B) {
	for _, subs := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			benchSubscribeFanout(b, subs, 0, time.Millisecond)
		})
	}
	for _, answers := range []int{100, 20000} {
		b.Run(fmt.Sprintf("answers=%d", answers), func(b *testing.B) {
			benchSubscribeFanout(b, 1, answers, time.Millisecond)
		})
	}
	for _, window := range []time.Duration{time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond} {
		b.Run(fmt.Sprintf("coalesce=%v/sweep", window), func(b *testing.B) {
			benchSubscribeFanout(b, 1000, 0, window)
		})
	}
}

// benchSubscribeFanout times one notification per iteration to a probe
// subscription over team0's members, beside subs-1 idle subscriptions;
// answers members of team0 are in place before the probe subscribes.
func benchSubscribeFanout(b *testing.B, subs, answers int, window time.Duration) {
	g := kg.NewGraph()
	member, err := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	if err != nil {
		b.Fatal(err)
	}
	teams := make([]kg.EntityID, subs)
	for i := range teams {
		if teams[i], err = g.AddEntity(kg.Entity{Key: fmt.Sprintf("team%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	members := make([]kg.Triple, answers)
	for i := range members {
		p, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("member%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		members[i] = kg.Triple{Subject: p, Predicate: member, Object: kg.EntityValue(teams[0])}
	}
	if _, err := g.AssertBatch(members); err != nil {
		b.Fatal(err)
	}
	person, err := g.AddEntity(kg.Entity{Key: "probe-person"})
	if err != nil {
		b.Fatal(err)
	}
	eng := graphengine.New(g)

	// The idle population: each query is bound to its own team entity, so
	// the probe triple never matches any of them, and the hub never
	// visits them. Their wide windows leave the tick interval to the
	// probe's.
	handles := make([]*graphengine.Subscription, 0, subs)
	b.Cleanup(func() {
		for _, s := range handles {
			s.Close()
		}
	})
	for i := 1; i < subs; i++ {
		sub, err := eng.Subscribe(
			[]graphengine.Clause{{Subject: graphengine.V("p"), Predicate: member, Object: graphengine.CE(teams[i])}},
			graphengine.SubscribeOptions{Coalesce: 250 * time.Millisecond},
		)
		if err != nil {
			b.Fatal(err)
		}
		handles = append(handles, sub)
		<-sub.C // drain the snapshot so the buffer stays empty
	}
	probe, err := eng.Subscribe(
		[]graphengine.Clause{{Subject: graphengine.V("p"), Predicate: member, Object: graphengine.CE(teams[0])}},
		graphengine.SubscribeOptions{Coalesce: window},
	)
	if err != nil {
		b.Fatal(err)
	}
	handles = append(handles, probe)
	if ev := <-probe.C; !ev.Reset || len(ev.Adds) != answers {
		b.Fatalf("probe snapshot: %+v", ev)
	}

	tr := kg.Triple{Subject: person, Predicate: member, Object: kg.EntityValue(teams[0])}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := g.Assert(tr); err != nil {
				b.Fatal(err)
			}
		} else if !g.Retract(tr) {
			b.Fatal("retract failed")
		}
		ev, ok := <-probe.C
		if !ok {
			b.Fatalf("probe closed mid-run: %v", probe.Err())
		}
		if len(ev.Adds)+len(ev.Retracts) != 1 {
			b.Fatalf("iteration %d: event %+v", i, ev)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "notifs/s")
}
