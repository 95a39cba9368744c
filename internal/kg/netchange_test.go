package kg

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"testing"
	"time"
)

// churn runs n random asserts and retracts over a small fact space, so
// facts are retracted and re-asserted many times, often with another
// provenance.
func churn(g *Graph, rng *rand.Rand, ents []EntityID, preds []PredicateID, n int) {
	var live []Triple
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			if !g.Retract(live[j]) {
				panic("retract of a live fact failed")
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := Triple{
			Subject:   ents[rng.Intn(len(ents))],
			Predicate: preds[rng.Intn(len(preds))],
			Object:    IntValue(int64(rng.Intn(8))),
			Prov:      Provenance{Source: fmt.Sprintf("s%d", rng.Intn(3))},
		}
		if rng.Intn(4) == 0 {
			t.Object = StringValue(fmt.Sprintf("v%d", rng.Intn(4)))
		}
		if rng.Intn(2) == 0 {
			t.Prov.ObservedAt = time.Unix(int64(rng.Intn(1000)), 0)
		}
		added, err := g.AssertNew(t)
		if err != nil {
			panic(err)
		}
		if added {
			live = append(live, t)
		}
	}
}

// NetChangeSince(base) applied to the state after the first base
// mutations — Retracted removed, then Asserted added — gives the state at
// the returned watermark, provenance included.
func TestNetChangeSinceReproducesWindow(t *testing.T) {
	g := NewGraphWithShards(4)
	ents := make([]EntityID, 6)
	for i := range ents {
		ents[i] = mustEntity(t, g, fmt.Sprintf("e%d", i), "")
	}
	preds := []PredicateID{mustPredicate(t, g, "p"), mustPredicate(t, g, "q"), mustPredicate(t, g, "r")}
	churn(g, rand.New(rand.NewSource(5)), ents, preds, 3000)
	history := g.MutationsSince(0)
	live := g.AllTriples()

	for _, base := range []uint64{0, 1, 17, uint64(len(history)) / 2, uint64(len(history)) - 3, uint64(len(history))} {
		ch, wm, ok := g.NetChangeSince(base)
		if !ok || wm != g.LastSeq() {
			t.Fatalf("base %d: ok=%v wm=%d, want true, %d", base, ok, wm, g.LastSeq())
		}
		if ch.Facts != len(live) {
			t.Fatalf("base %d: Facts %d, graph holds %d", base, ch.Facts, len(live))
		}
		for i := 1; i < len(ch.Retracted); i++ {
			if ch.Retracted[i-1].Compare(ch.Retracted[i]) >= 0 {
				t.Fatalf("base %d: Retracted out of identity order at %d", base, i)
			}
		}
		for i := 1; i < len(ch.Asserted); i++ {
			if ch.Asserted[i-1].IdentityKey().Compare(ch.Asserted[i].IdentityKey()) >= 0 {
				t.Fatalf("base %d: Asserted out of identity order at %d", base, i)
			}
		}

		ref := NewGraphWithShards(2)
		for _, e := range ents {
			mustEntity(t, ref, g.Entity(e).Key, "")
		}
		for _, p := range preds {
			mustPredicate(t, ref, g.Predicate(p).Name)
		}
		for _, mu := range history[:base] {
			if mu.Op == OpAssert {
				if err := ref.Assert(mu.T); err != nil {
					t.Fatal(err)
				}
			} else if !ref.Retract(mu.T) {
				t.Fatalf("reference replay of %d failed", mu.Seq)
			}
		}
		for _, k := range ch.Retracted {
			if !ref.Retract(Triple{Subject: k.Subject, Predicate: k.Predicate, Object: k.Object.Value()}) {
				t.Fatalf("base %d: Retracted names %v, absent at base", base, k)
			}
		}
		if added, err := ref.AssertBatch(ch.Asserted); err != nil || added != len(ch.Asserted) {
			t.Fatalf("base %d: %d of %d Asserted facts added (err %v)", base, added, len(ch.Asserted), err)
		}
		got := ref.AllTriples()
		if len(got) != len(live) {
			t.Fatalf("base %d: base + net change holds %d facts, live %d", base, len(got), len(live))
		}
		for i := range live {
			if got[i] != live[i] {
				t.Fatalf("base %d: fact %d is %#v, live %#v", base, i, got[i], live[i])
			}
		}
	}

	// A window the log no longer holds is refused, not folded short.
	cut := uint64(len(history)) / 3
	g.TruncateLog(cut)
	if _, _, ok := g.NetChangeSince(cut - 1); ok {
		t.Fatalf("NetChangeSince(%d) folded a window below floor %d", cut-1, g.LogFloor())
	}
	if _, _, ok := g.NetChangeSince(cut); !ok {
		t.Fatalf("NetChangeSince(%d) refused a window at the floor", cut)
	}
}

// Two facts whose hashes share the upper half — the fold's grouping key —
// land in one group, interleaved; the fold must still tell them apart.
func TestNetChangeSinceSplitsHashCollisions(t *testing.T) {
	g := NewGraphWithShards(1)
	s := mustEntity(t, g, "s", "")
	p := mustPredicate(t, g, "p")
	seen := make(map[uint64]int64)
	var a, b int64 = -1, -1
	for i := int64(0); a < 0; i++ {
		h := maphash.Comparable(netSeed, TripleKey{Subject: s, Predicate: p, Object: ValueKey{Kind: KindInt, Num: i}}) >> 32
		if j, ok := seen[h]; ok {
			a, b = j, i
		}
		seen[h] = i
	}
	fa := Triple{Subject: s, Predicate: p, Object: IntValue(a)}
	fb := Triple{Subject: s, Predicate: p, Object: IntValue(b)}
	if err := g.Assert(fa); err != nil {
		t.Fatal(err)
	}
	base := g.LastSeq()
	// a: present at base, retracted, asserted, retracted — net retracted.
	// b: asserted, retracted, asserted — net asserted.
	for _, step := range []func() bool{
		func() bool { return g.Retract(fa) },
		func() bool { return g.Assert(fb) == nil },
		func() bool { return g.Assert(fa) == nil },
		func() bool { return g.Retract(fb) },
		func() bool { return g.Retract(fa) },
		func() bool { return g.Assert(fb) == nil },
	} {
		if !step() {
			t.Fatal("history step failed")
		}
	}
	ch, _, ok := g.NetChangeSince(base)
	if !ok || len(ch.Retracted) != 1 || ch.Retracted[0] != fa.IdentityKey() || len(ch.Asserted) != 1 || ch.Asserted[0].IdentityKey() != fb.IdentityKey() {
		t.Fatalf("net change over colliding facts %d and %d: %+v", a, b, ch)
	}
}

// BenchmarkNetChangeSince folds a checkpoint window shaped like the
// durable ingest benchmark's: a 180K-fact graph over 20 000 subjects,
// then batches that assert 32 new facts — half entity-valued, a quarter
// string literals — about subjects drawn with weight 1/(rank+1), each
// also retracting the batch asserted 64 batches earlier: 155 648 entries,
// 2 048 facts asserted and 2 048 retracted net.
func BenchmarkNetChangeSince(b *testing.B) {
	const subjects, facts, batch, lag, batches = 20000, 180000, 32, 64, 2432
	g := NewGraph()
	preds := []PredicateID{}
	for _, name := range []string{"collaborator", "award", "libraryID"} {
		p, _ := g.AddPredicate(Predicate{Name: name})
		preds = append(preds, p)
	}
	ents := make([]EntityID, subjects)
	for i := range ents {
		ents[i], _ = g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
	}
	cum := make([]float64, subjects)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(1))
	draw := func() EntityID {
		x := rng.Float64() * total
		i, j := 0, len(cum)
		for i < j {
			if h := (i + j) / 2; cum[h] < x {
				i = h + 1
			} else {
				j = h
			}
		}
		return ents[min(i, len(ents)-1)]
	}
	serial := 0
	fact := func(k int) Triple {
		serial++
		t := Triple{Subject: draw(), Predicate: preds[min(k%4, 2)], Prov: Provenance{Source: "bench"}}
		if k%4 == 3 {
			t.Object = StringValue(fmt.Sprintf("BENCH-%08d", serial))
		} else {
			t.Object = EntityValue(ents[rng.Intn(subjects)])
		}
		return t
	}
	seed := make([]Triple, facts)
	for i := range seed {
		seed[i] = fact(i)
	}
	if _, err := g.AssertBatch(seed); err != nil {
		b.Fatal(err)
	}
	var history [][]Triple
	apply := func() {
		var asserted []Triple
		for k := 0; len(asserted) < batch; k++ {
			t := fact(k)
			if added, err := g.AssertNew(t); err != nil {
				b.Fatal(err)
			} else if added {
				asserted = append(asserted, t)
			}
		}
		if n := len(history); n >= lag {
			for _, t := range history[n-lag] {
				g.Retract(t)
			}
		}
		history = append(history, asserted)
	}
	for i := 0; i < lag; i++ {
		apply()
	}
	base := g.LastSeq()
	for i := 0; i < batches; i++ {
		apply()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, wm, ok := g.NetChangeSince(base)
		if !ok || len(ch.Retracted) != lag*batch || len(ch.Asserted) != lag*batch {
			b.Fatalf("ok=%v, %d retracted, %d asserted", ok, len(ch.Retracted), len(ch.Asserted))
		}
		b.ReportMetric(float64(wm-base), "entries/op")
	}
}
