package kg

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// A subject's facts come out of OutgoingFunc by predicate ID, then by
// object key, the same on every call and whatever order they went in.
func TestOutgoingFuncOrder(t *testing.T) {
	build := func(shards int, asserts []int) *Graph {
		g := NewGraphWithShards(shards)
		s := mustEntity(t, g, "ada", "")
		for _, name := range []string{"p1", "p2", "p3", "p4", "p5"} {
			mustPredicate(t, g, name)
		}
		for _, x := range asserts {
			tr := Triple{Subject: s, Predicate: PredicateID(1 + x%5), Object: IntValue(int64(x / 5))}
			if err := g.Assert(tr); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	outgoing := func(g *Graph) []TripleKey {
		var out []TripleKey
		g.OutgoingFunc(1, func(tr Triple) bool {
			out = append(out, tr.IdentityKey())
			return true
		})
		return out
	}
	var want []TripleKey
	for p := PredicateID(1); p <= 5; p++ {
		for n := int64(0); n < 3; n++ {
			want = append(want, TripleKey{Subject: 1, Predicate: p, Object: IntValue(n).MapKey()})
		}
	}
	forward := make([]int, 15)
	for i := range forward {
		forward[i] = i
	}
	scrambled := []int{13, 2, 9, 0, 14, 6, 11, 4, 7, 1, 12, 3, 10, 5, 8}
	for _, g := range []*Graph{build(1, forward), build(8, scrambled)} {
		for call := 0; call < 50; call++ {
			if got := outgoing(g); !slices.Equal(got, want) {
				t.Fatalf("call %d on %d shards: OutgoingFunc gave %v, want %v", call, g.NumShards(), got, want)
			}
		}
	}
}

// factRunsPool is the fuzz target's object universe, in ascending
// ValueKey order: the expected enumerations are built by walking it, so
// the test itself never sorts.
var factRunsPool = []Value{
	EntityValue(1), EntityValue(5), EntityValue(9),
	StringValue("a"), StringValue("b"),
	IntValue(-3), IntValue(0), IntValue(7),
}

// factRunsSubjects are the subjects the ops touch, ascending. On 8
// shards they land in slots 0, 0, 0, 1, 2, 2, 4 and 5, so later subjects
// sit past a shard's slot range until something grows it.
var factRunsSubjects = []EntityID{1, 2, 3, 9, 16, 17, 33, 40}

// forceFold folds the delta into a new base whatever its size.
func forceFold(g *Graph) {
	g.lockAll()
	defer g.unlockAll()
	g.foldLocked()
}

// FuzzFactRuns checks the base and delta layers against a reference
// model, a plain map from fact identity to the provenance the first
// assertion gave it. Byte 0 picks 1, 2 or 8 shards; then each (op, arg)
// pair is an op, op % 4: 0 AssertNew, 1 Retract, 2 AssertBatch of 1–8
// facts where every third repeats the first with another provenance, 3
// retract every fact of one subject (a subject drained to empty; later
// asserts re-assert), or, when op's bit 2 is set, fold the delta into a
// new base. arg picks a fact: the subject from its low 3 bits, one of 4
// predicates (asserted in any interleaving) from the next 2, the object
// from the top 3. After every op each read agrees with the model: Facts,
// FactsFunc, FactsChunked at chunk sizes 1–3, FactCount and HasFact per
// (subject, predicate); OutgoingFunc's order per subject; AllTriples' and
// TriplesSnapshot's identity order; NumTriples; ComputeStats'
// MaxOutDegree; SubjectsWithFunc, SubjectsWithCount, PredicateFrequency
// and PredicateEntriesFunc's order per predicate; and the layer counts'
// sum.
func FuzzFactRuns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 255, 0, 9, 0, 17, 1, 9, 0, 9, 3, 0, 0, 0})
	f.Add([]byte{1, 2, 5, 0, 24, 0, 8, 0, 16, 0, 0, 1, 8, 2, 200, 3, 0, 2, 7, 1, 7})
	f.Add([]byte{2, 0, 7, 0, 6, 0, 31, 0, 30, 2, 134, 2, 86, 1, 6, 3, 6, 0, 6, 3, 7, 0, 255})
	f.Add(func() []byte {
		b := []byte{2}
		for i := byte(0); i < 40; i++ {
			b = append(b, 4*i, 37*i, 2+4*i, 11*i+3)
			if i%7 == 6 {
				b = append(b, 3, i, 1, 5*i)
			}
		}
		return b
	}())
	f.Add([]byte{1, 0, 9, 0, 41, 0, 201, 7, 0, 1, 9, 0, 9, 2, 77, 1, 41, 7, 0, 0, 41, 3, 1, 0, 1, 7, 0, 0, 72, 1, 72, 0, 72})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 1 || len(ops) > 400 {
			return
		}
		g := NewGraphWithShards([]int{1, 2, 8}[ops[0]%3])
		for i := 1; i <= 40; i++ {
			mustEntity(t, g, fmt.Sprintf("e%d", i), "")
		}
		preds := make([]PredicateID, 4)
		for i := range preds {
			preds[i] = mustPredicate(t, g, fmt.Sprintf("p%d", i))
		}
		for i := 1; i < len(factRunsPool); i++ {
			if factRunsPool[i-1].MapKey().Compare(factRunsPool[i].MapKey()) >= 0 {
				t.Fatalf("object pool not ascending at %d", i)
			}
		}
		fact := func(arg byte, source string) Triple {
			return Triple{Subject: factRunsSubjects[arg&7], Predicate: preds[arg>>3&3],
				Object: factRunsPool[arg>>5], Prov: Provenance{Source: source}}
		}
		ref := map[TripleKey]Provenance{}

		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			source := fmt.Sprintf("op%d", i)
			switch op % 4 {
			case 0:
				tr := fact(arg, source)
				_, had := ref[tr.IdentityKey()]
				added, err := g.AssertNew(tr)
				if err != nil || added == had {
					t.Fatalf("AssertNew(%v) = %v, %v with the fact present: %v", tr, added, err, had)
				}
				if !had {
					ref[tr.IdentityKey()] = tr.Prov
				}
			case 1:
				tr := fact(arg, source)
				_, had := ref[tr.IdentityKey()]
				if got := g.Retract(tr); got != had {
					t.Fatalf("Retract(%v) = %v with the fact present: %v", tr, got, had)
				}
				delete(ref, tr.IdentityKey())
			case 2:
				var batch []Triple
				for j := 0; j <= int(op>>2)%8; j++ {
					x := arg + byte(37*j)
					if j%3 == 2 {
						x = arg
					}
					batch = append(batch, fact(x, fmt.Sprintf("%s.%d", source, j)))
				}
				want := 0
				for _, tr := range batch {
					if _, had := ref[tr.IdentityKey()]; !had {
						ref[tr.IdentityKey()] = tr.Prov
						want++
					}
				}
				if added, err := g.AssertBatch(batch); err != nil || added != want {
					t.Fatalf("AssertBatch(%v) = %d, %v, want %d added", batch, added, err, want)
				}
			case 3:
				if op&4 != 0 {
					forceFold(g)
					break
				}
				subj := factRunsSubjects[arg&7]
				for _, p := range preds {
					for _, obj := range factRunsPool {
						k := TripleKey{Subject: subj, Predicate: p, Object: obj.MapKey()}
						if _, had := ref[k]; had {
							if !g.Retract(Triple{Subject: subj, Predicate: p, Object: obj}) {
								t.Fatalf("Retract(%v) found nothing", k)
							}
							delete(ref, k)
						}
					}
				}
			}
			checkFactRuns(t, g, preds, ref)
		}
	})
}

// checkFactRuns compares every read of the runs with the reference.
func checkFactRuns(t *testing.T, g *Graph, preds []PredicateID, ref map[TripleKey]Provenance) {
	t.Helper()
	var all []Triple
	maxOut := 0
	for _, s := range factRunsSubjects {
		var outgoing []Triple
		for _, p := range preds {
			var want []Triple
			for _, obj := range factRunsPool {
				k := TripleKey{Subject: s, Predicate: p, Object: obj.MapKey()}
				prov, had := ref[k]
				if had {
					want = append(want, Triple{Subject: s, Predicate: p, Object: obj, Prov: prov})
				}
				if got := g.HasFact(s, p, obj); got != had {
					t.Fatalf("HasFact(%v) = %v, want %v", k, got, had)
				}
			}
			if got := g.Facts(s, p); !slices.Equal(got, want) {
				t.Fatalf("Facts(%v, %v) = %v, want %v", s, p, got, want)
			}
			var streamed []Triple
			g.FactsFunc(s, p, func(tr Triple) bool {
				streamed = append(streamed, tr)
				return true
			})
			if !slices.Equal(streamed, want) {
				t.Fatalf("FactsFunc(%v, %v) = %v, want %v", s, p, streamed, want)
			}
			for size := 1; size <= 3; size++ {
				var chunked []Triple
				g.FactsChunked(s, p, size, func(chunk []Triple) bool {
					if len(chunk) > size {
						t.Fatalf("FactsChunked(%v, %v, %d) handed a chunk of %d", s, p, size, len(chunk))
					}
					chunked = append(chunked, chunk...)
					return true
				})
				if !slices.Equal(chunked, want) {
					t.Fatalf("FactsChunked(%v, %v, %d) = %v, want %v", s, p, size, chunked, want)
				}
			}
			if got := g.FactCount(s, p); got != len(want) {
				t.Fatalf("FactCount(%v, %v) = %d, want %d", s, p, got, len(want))
			}
			outgoing = append(outgoing, want...)
		}
		var got []Triple
		g.OutgoingFunc(s, func(tr Triple) bool {
			got = append(got, tr)
			return true
		})
		if !slices.Equal(got, outgoing) {
			t.Fatalf("OutgoingFunc(%v) = %v, want %v", s, got, outgoing)
		}
		all = append(all, outgoing...)
		maxOut = max(maxOut, len(outgoing))
	}
	if got := g.AllTriples(); !slices.Equal(got, all) {
		t.Fatalf("AllTriples() = %v, want %v", got, all)
	}
	var snap []Triple
	g.TriplesSnapshot(func(tr Triple) bool {
		snap = append(snap, tr)
		return true
	})
	if !slices.Equal(snap, all) {
		t.Fatalf("TriplesSnapshot gave %v, want %v", snap, all)
	}
	if got := g.NumTriples(); got != len(ref) {
		t.Fatalf("NumTriples() = %d, want %d", got, len(ref))
	}
	if got := ComputeStats(g).MaxOutDegree; got != maxOut {
		t.Fatalf("MaxOutDegree = %d, want %d", got, maxOut)
	}
	for _, p := range preds {
		total := 0
		var entries, pairs []TripleKey // pairs: ref's, in key then subject order
		for _, obj := range factRunsPool {
			var want []EntityID
			for _, s := range factRunsSubjects {
				k := TripleKey{Subject: s, Predicate: p, Object: obj.MapKey()}
				if _, had := ref[k]; had {
					want = append(want, s)
					pairs = append(pairs, k)
				}
			}
			if got := subjectsWith(g, p, obj); !slices.Equal(got, want) {
				t.Fatalf("SubjectsWithFunc(%v, %v) = %v, want %v", p, obj, got, want)
			}
			if got := g.SubjectsWithCount(p, obj); got != len(want) {
				t.Fatalf("SubjectsWithCount(%v, %v) = %d, want %d", p, obj, got, len(want))
			}
			total += len(want)
		}
		if got := g.PredicateFrequency(p); got != total {
			t.Fatalf("PredicateFrequency(%v) = %d, want %d", p, got, total)
		}
		g.PredicateEntriesFunc(p, func(obj Value, s EntityID) bool {
			entries = append(entries, TripleKey{Subject: s, Predicate: p, Object: obj.MapKey()})
			return true
		})
		if !slices.Equal(entries, pairs) {
			t.Fatalf("PredicateEntriesFunc(%v) = %v, want %v", p, entries, pairs)
		}
	}
	if l := g.Layers(); l.BaseFacts+l.DeltaAdds-l.DeltaRemovals != int64(len(ref)) {
		t.Fatalf("layers %+v do not sum to %d facts", l, len(ref))
	}
}

// Chunked readers racing folds and writes deliver, in strictly ascending
// order, every fact that stayed present: a hub subject's fact list
// (FactsChunked) and a posting (SubjectsWithChunked). Run it with -race.
func TestChunkedReadsAcrossFold(t *testing.T) {
	const n = 600
	g := NewGraphWithShards(4)
	for i := 1; i <= n; i++ {
		mustEntity(t, g, fmt.Sprintf("e%d", i), "")
	}
	p, q := mustPredicate(t, g, "p"), mustPredicate(t, g, "q")
	const hub = EntityID(1)
	hubFact := func(i int) Triple { return Triple{Subject: hub, Predicate: p, Object: IntValue(int64(i))} }
	inFact := func(s int) Triple { return Triple{Subject: EntityID(s), Predicate: q, Object: EntityValue(hub)} }
	var batch []Triple
	for i := 2; i <= n; i++ {
		batch = append(batch, hubFact(i), inFact(i))
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Odd facts churn; even ones stay.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 3; ; i = (i+2)%n | 1 {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range []Triple{hubFact(i), inFact(max(i, 3)), hubFact(n + i)} {
				if !g.Retract(tr) {
					_ = g.Assert(tr) // every fact here is valid
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				forceFold(g)
			}
		}
	}()
	// Read until the folder has run a few times, however it is scheduled.
	for round := 0; round < 30 || g.Layers().Folds < 3; round++ {
		var facts []int64
		g.FactsChunked(hub, p, 7, func(chunk []Triple) bool {
			for _, tr := range chunk {
				facts = append(facts, tr.Object.Num)
			}
			return true
		})
		var subjs []EntityID
		g.SubjectsWithChunked(q, EntityValue(hub), NoEntity, 7, func(chunk []EntityID) bool {
			subjs = append(subjs, chunk...)
			return true
		})
		for i := 1; i < len(facts); i++ {
			if facts[i-1] >= facts[i] {
				t.Fatalf("round %d: FactsChunked not strictly ascending at %d: %v", round, i, facts)
			}
		}
		for i := 1; i < len(subjs); i++ {
			if subjs[i-1] >= subjs[i] {
				t.Fatalf("round %d: SubjectsWithChunked not strictly ascending at %d: %v", round, i, subjs)
			}
		}
		for i := 2; i <= n; i += 2 {
			if _, ok := slices.BinarySearch(facts, int64(i)); !ok {
				t.Fatalf("round %d: FactsChunked missed the fact %d, present throughout", round, i)
			}
			if _, ok := slices.BinarySearch(subjs, EntityID(i)); !ok {
				t.Fatalf("round %d: SubjectsWithChunked missed subject %d, present throughout", round, i)
			}
		}
	}
	close(stop)
	wg.Wait()
	if g.Layers().Folds == 0 {
		t.Fatal("no fold ran during the reads")
	}
}

// Batches racing into an empty graph: at most one is frozen into the
// base and the others go through the delta, so every fact is added once
// and the graph holds the batches' union. Run it with -race.
func TestConcurrentBulkLoads(t *testing.T) {
	const writers = 4
	for round := 0; round < 20; round++ {
		g := NewGraphWithShards(4)
		for i := 1; i <= 32; i++ {
			mustEntity(t, g, fmt.Sprintf("e%d", i), "")
		}
		p := mustPredicate(t, g, "p")
		batch := func(w int) (ts []Triple) {
			for i := 0; i < 64; i++ {
				ts = append(ts, Triple{Subject: EntityID(1 + (7*i+w)%32), Predicate: p, Object: IntValue(int64(i % (16 + w)))})
			}
			return ts
		}
		want := map[TripleKey]bool{}
		for w := range writers {
			for _, tr := range batch(w) {
				want[tr.IdentityKey()] = true
			}
		}
		added := make([]int, writers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				n, err := g.AssertBatch(batch(w))
				if err != nil {
					t.Error(err)
				}
				added[w] = n
			}()
		}
		close(start)
		wg.Wait()
		sum := 0
		for _, n := range added {
			sum += n
		}
		got := g.AllTriples()
		if sum != len(want) || len(got) != len(want) {
			t.Fatalf("round %d: batches added %d facts and the graph holds %d, want %d", round, sum, len(got), len(want))
		}
		for _, tr := range got {
			if !want[tr.IdentityKey()] {
				t.Fatalf("round %d: the graph holds %v, which no batch asserted", round, tr)
			}
		}
		if l := g.Layers(); l.BaseFacts+l.DeltaAdds-l.DeltaRemovals != int64(len(want)) {
			t.Fatalf("round %d: layers %+v do not sum to %d facts", round, l, len(want))
		}
	}
}
