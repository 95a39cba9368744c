package kg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// pomTestObjects builds the object-value pool the pom tests draw from:
// entity references plus literals of every kind, including the
// adversarial float payloads (NaN bit patterns, signed zeros) whose
// string renders are ambiguous.
func pomTestObjects(ents []EntityID) []Value {
	objs := make([]Value, 0, len(ents)+8)
	for _, e := range ents {
		objs = append(objs, EntityValue(e))
	}
	objs = append(objs,
		StringValue(""),
		StringValue("a;y=s:b"),
		IntValue(42),
		FloatValue(math.NaN()),
		FloatValue(math.Float64frombits(0x7ff8000000000002)),
		FloatValue(math.Copysign(0, -1)),
		BoolValue(true),
		TimeValue(time.Date(2020, 3, 1, 12, 0, 0, 0, time.UTC)),
	)
	return objs
}

func sortedIDs(ids []EntityID) []EntityID {
	out := append([]EntityID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subjectsWith collects the (pred, obj) posting through SubjectsWithFunc.
func subjectsWith(g *Graph, pred PredicateID, obj Value) []EntityID {
	var out []EntityID
	g.SubjectsWithFunc(pred, obj, func(s EntityID) bool {
		out = append(out, s)
		return true
	})
	return out
}

// SubjectsWithSweep answers subjectsWith from the subject-major reads
// alone, never touching the predicate-major index: the index-free
// reference the pom tests compare against. It probes every registered
// subject with HasFact; order is unspecified.
func (g *Graph) SubjectsWithSweep(pred PredicateID, obj Value) []EntityID {
	var out []EntityID
	for s := EntityID(1); int(s) <= g.NumEntities(); s++ {
		if g.HasFact(s, pred, obj) {
			out = append(out, s)
		}
	}
	return out
}

// checkPomAgainstSweep compares, for every (pred, obj) pair in the pools,
// the predicate-major index (SubjectsWithFunc / SubjectsWithCount /
// PredicateFrequency) against the subject-swept reference
// (SubjectsWithSweep), and the counter-driven ComputeStats against a full
// triple scan. It also holds every enumeration to the canonical order:
// postings ascending by subject ID, fact lists ascending by object key.
func checkPomAgainstSweep(t *testing.T, g *Graph, preds []PredicateID, objs []Value) {
	t.Helper()
	var prev Triple
	g.TriplesSnapshot(func(tr Triple) bool {
		if tr.Subject == prev.Subject && tr.Predicate == prev.Predicate && prev.Object.MapKey().Compare(tr.Object.MapKey()) >= 0 {
			t.Fatalf("fact list (%v, %v) not strictly ascending by object key at %v", tr.Subject, tr.Predicate, tr.Object)
		}
		prev = tr
		return true
	})
	for _, p := range preds {
		total := 0
		seen := make(map[ValueKey]bool, len(objs))
		for _, o := range objs {
			if k := o.MapKey(); seen[k] {
				continue
			} else {
				seen[k] = true
			}
			pom := subjectsWith(g, p, o)
			if !slices.IsSorted(pom) {
				t.Fatalf("pred %v obj %v: posting %v not in ascending subject order", p, o, pom)
			}
			sweep := sortedIDs(g.SubjectsWithSweep(p, o))
			if len(pom) != len(sweep) {
				t.Fatalf("pred %v obj %v: pom %v vs sweep %v", p, o, pom, sweep)
			}
			for i := range pom {
				if pom[i] != sweep[i] {
					t.Fatalf("pred %v obj %v: pom %v vs sweep %v", p, o, pom, sweep)
				}
			}
			if c := g.SubjectsWithCount(p, o); c != len(sweep) {
				t.Fatalf("pred %v obj %v: count %d vs sweep %d", p, o, c, len(sweep))
			}
			total += len(sweep)
		}
		if f := g.PredicateFrequency(p); f != total {
			t.Fatalf("pred %v: PredicateFrequency %d vs sweep total %d", p, f, total)
		}
	}
	// ComputeStats (counter-driven) must agree with a direct triple scan.
	s := ComputeStats(g)
	wantFreq := make(map[PredicateID]int)
	wantTriples, wantEntity := 0, 0
	outDeg := make(map[EntityID]int)
	g.TriplesSnapshot(func(tr Triple) bool {
		wantTriples++
		if tr.Object.IsEntity() {
			wantEntity++
		}
		wantFreq[tr.Predicate]++
		outDeg[tr.Subject]++
		return true
	})
	if s.Triples != wantTriples || s.EntityTriples != wantEntity || s.LiteralTriples != wantTriples-wantEntity {
		t.Fatalf("stats counts = %d/%d/%d, scan says %d/%d/%d",
			s.Triples, s.EntityTriples, s.LiteralTriples, wantTriples, wantEntity, wantTriples-wantEntity)
	}
	if len(s.PredFreq) != len(wantFreq) {
		t.Fatalf("stats PredFreq = %v, scan says %v", s.PredFreq, wantFreq)
	}
	for p, n := range wantFreq {
		if s.PredFreq[p] != n {
			t.Fatalf("stats PredFreq[%v] = %d, scan says %d", p, s.PredFreq[p], n)
		}
	}
	wantMax := 0
	for _, d := range outDeg {
		if d > wantMax {
			wantMax = d
		}
	}
	if s.MaxOutDegree != wantMax {
		t.Fatalf("stats MaxOutDegree = %d, scan says %d", s.MaxOutDegree, wantMax)
	}
}

// Property: across randomized Assert/Retract/AssertBatch interleavings
// (with entity and adversarial-literal objects), the predicate-major
// index agrees exactly with a sweep of every subject's facts, and the
// maintained counters agree with full scans.
func TestPomMatchesSweepRandomized(t *testing.T) {
	f := func(ops []uint32) bool {
		g := NewGraph()
		const nEnts = 12
		const nPreds = 5
		ents := make([]EntityID, nEnts)
		for i := range ents {
			id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
			if err != nil {
				return false
			}
			ents[i] = id
		}
		preds := make([]PredicateID, nPreds)
		for i := range preds {
			id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
			if err != nil {
				return false
			}
			preds[i] = id
		}
		objs := pomTestObjects(ents)
		var pending []Triple
		for _, op := range ops {
			tr := Triple{
				Subject:   ents[int(op)%nEnts],
				Predicate: preds[int(op>>4)%nPreds],
				Object:    objs[int(op>>8)%len(objs)],
			}
			switch (op >> 16) % 8 {
			case 0, 1, 2:
				if err := g.Assert(tr); err != nil {
					return false
				}
			case 3, 4:
				pending = append(pending, tr)
			case 5:
				if _, err := g.AssertBatch(pending); err != nil {
					return false
				}
				pending = pending[:0]
			default:
				g.Retract(tr)
			}
		}
		if _, err := g.AssertBatch(pending); err != nil {
			return false
		}
		checkPomAgainstSweep(t, g, preds, objs)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent churn under the race detector: writers interleave
// Assert/Retract/AssertBatch on overlapping subjects and predicates while
// readers hammer the pom accessors; when the writers drain, the index
// must agree with the subject-swept reference.
func TestPomConcurrentChurn(t *testing.T) {
	g := NewGraph()
	const nEnts = 64
	const nPreds = 6
	ents := make([]EntityID, nEnts)
	for i := range ents {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = id
	}
	preds := make([]PredicateID, nPreds)
	for i := range preds {
		id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = id
	}
	objs := pomTestObjects(ents[:16])

	var done atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var batch []Triple
			for i := 0; i < 1500; i++ {
				tr := Triple{
					Subject:   ents[rng.Intn(nEnts)],
					Predicate: preds[rng.Intn(nPreds)],
					Object:    objs[rng.Intn(len(objs))],
				}
				switch rng.Intn(8) {
				case 0, 1, 2, 3:
					if err := g.Assert(tr); err != nil {
						t.Error(err)
						return
					}
				case 4:
					g.Retract(tr)
				case 5, 6:
					batch = append(batch, tr)
				default:
					if _, err := g.AssertBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if _, err := g.AssertBatch(batch); err != nil {
				t.Error(err)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !done.Load() {
				p := preds[rng.Intn(nPreds)]
				o := objs[rng.Intn(len(objs))]
				_ = subjectsWith(g, p, o)
				_ = g.SubjectsWithCount(p, o)
				_ = g.SubjectsWithSweep(p, o)
				_ = g.PredicateFrequency(p)
				g.SubjectsWithFunc(p, o, func(EntityID) bool { return true })
				if rng.Intn(16) == 0 {
					_ = ComputeStats(g)
				}
			}
		}(r)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	checkPomAgainstSweep(t, g, preds, objs)
}

// ValueKey.Value must round-trip identity for every kind, including NaN
// payloads, signed zeros, and times (as their UTC instant).
func TestValueKeyRoundTrip(t *testing.T) {
	vals := []Value{
		EntityValue(7),
		StringValue(""),
		StringValue("a=b;c"),
		IntValue(-3),
		IntValue(0),
		BoolValue(true),
		BoolValue(false),
		FloatValue(1.5),
		FloatValue(math.NaN()),
		FloatValue(math.Float64frombits(0x7ff8000000000002)),
		FloatValue(math.Copysign(0, -1)),
		FloatValue(0),
		TimeValue(time.Date(1969, 7, 20, 20, 17, 0, 123456789, time.FixedZone("X", -3600))),
	}
	for i, v := range vals {
		k := v.MapKey()
		rt := k.Value()
		if rt.MapKey() != k {
			t.Errorf("case %d: round-trip changed identity: %v -> %v", i, v, rt)
		}
		if v.Kind != KindFloat && !rt.Equal(v) {
			t.Errorf("case %d: round-trip not Equal: %v -> %v", i, v, rt)
		}
	}
	if (ValueKey{}).Value().Kind != 0 {
		t.Error("zero key must reconstruct the invalid zero Value")
	}
}

// Retract-heavy churn on hot postings under the race detector: 4 writers
// interleave Assert/Retract/AssertBatch with a retract-biased mix over a
// deliberately small (pred, obj) space, so postings grow to hundreds of
// subjects and are spliced mid-list constantly while readers (including
// the subject-swept reference) hammer the accessors. When the writers
// drain, the predicate-major index must agree exactly with
// SubjectsWithSweep and still be sorted.
func TestPomRetractHeavyConcurrentChurn(t *testing.T) {
	g := NewGraph()
	const nEnts = 512
	const nPreds = 3
	ents := make([]EntityID, nEnts)
	for i := range ents {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = id
	}
	preds := make([]PredicateID, nPreds)
	for i := range preds {
		id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = id
	}
	// A handful of hot objects: postings concentrate to hundreds of
	// subjects each.
	objs := pomTestObjects(ents[:2])

	var done atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 31))
			var batch []Triple
			for i := 0; i < 2500; i++ {
				tr := Triple{
					Subject:   ents[rng.Intn(nEnts)],
					Predicate: preds[rng.Intn(nPreds)],
					Object:    objs[rng.Intn(len(objs))],
				}
				switch rng.Intn(10) {
				case 0, 1, 2:
					if err := g.Assert(tr); err != nil {
						t.Error(err)
						return
					}
				case 3, 4, 5, 6: // retract-biased
					g.Retract(tr)
				case 7, 8:
					batch = append(batch, tr)
				default:
					if _, err := g.AssertBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if _, err := g.AssertBatch(batch); err != nil {
				t.Error(err)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for !done.Load() {
				p := preds[rng.Intn(nPreds)]
				o := objs[rng.Intn(len(objs))]
				_ = subjectsWith(g, p, o)
				_ = g.SubjectsWithCount(p, o)
				_ = g.SubjectsWithSweep(p, o)
				_ = g.PredicateFrequency(p)
				if rng.Intn(8) == 0 {
					_ = g.appendMutationsSince(nil, g.LastSeq()/2)
				}
			}
		}(r)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	checkPomAgainstSweep(t, g, preds, objs)
}

// Retract from a hot posting, then read: through rounds of random
// retracts and re-asserts the accessors report the live subjects only, in
// ascending ID order whatever the history.
func TestHotPostingRetractThenRead(t *testing.T) {
	const n = 200
	g := NewGraph()
	p, _ := g.AddPredicate(Predicate{Name: "type"})
	person, err := g.AddEntity(Entity{Key: "Person"})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]EntityID, n)
	batch := make([]Triple, n)
	for i := range subs {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("s%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = id
		batch[i] = Triple{Subject: id, Predicate: p, Object: EntityValue(person)}
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}

	obj := EntityValue(person)
	live := append([]EntityID(nil), subs...)
	rng := rand.New(rand.NewSource(1))
	check := func(round int) {
		t.Helper()
		if got, want := subjectsWith(g, p, obj), sortedIDs(live); !slices.Equal(got, want) {
			t.Fatalf("round %d: posting %v, want the live subjects ascending %v", round, got, want)
		}
		checkPomAgainstSweep(t, g, []PredicateID{p}, []Value{obj})
	}
	for round := 0; round < 3; round++ {
		// Retract a random half of the live subjects.
		for i := 0; i < len(live)/2; i++ {
			j := rng.Intn(len(live))
			s := live[j]
			live = append(live[:j], live[j+1:]...)
			if !g.Retract(Triple{Subject: s, Predicate: p, Object: obj}) {
				t.Fatalf("retract of live subject %v failed", s)
			}
		}
		check(round)
		// Re-assert a few retracted subjects; they return to their
		// canonical slots, not to the tail.
		for i := 0; i < 10; i++ {
			s := subs[rng.Intn(n)]
			if slices.Contains(live, s) {
				continue
			}
			if err := g.Assert(Triple{Subject: s, Predicate: p, Object: obj}); err != nil {
				t.Fatal(err)
			}
			live = append(live, s)
		}
		check(round)
	}

	// Retract everything: the posting and the predicate's entry must drain
	// fully.
	for _, s := range subjectsWith(g, p, obj) {
		if !g.Retract(Triple{Subject: s, Predicate: p, Object: obj}) {
			t.Fatalf("final drain: retract of %v failed", s)
		}
	}
	if c := g.SubjectsWithCount(p, obj); c != 0 {
		t.Fatalf("count after full drain = %d, want 0", c)
	}
	if g.PredicateFrequency(p) != 0 {
		t.Fatalf("PredicateFrequency after drain = %d, want 0", g.PredicateFrequency(p))
	}
}

// Property: under randomized assert/retract interleavings the count
// accessors agree with a model maintained by the test at every probe
// point.
func TestPomCountsMatchModelRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGraph()
	const nEnts, nPreds = 48, 4
	ents := make([]EntityID, nEnts)
	for i := range ents {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = id
	}
	preds := make([]PredicateID, nPreds)
	for i := range preds {
		id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = id
	}
	objs := pomTestObjects(ents[:8])

	type cell struct {
		pred PredicateID
		obj  ValueKey
	}
	type factKey struct {
		subj EntityID
		cell cell
	}
	counts := make(map[cell]int)
	freq := make(map[PredicateID]int)
	present := make(map[factKey]bool)

	for step := 0; step < 4000; step++ {
		tr := Triple{
			Subject:   ents[rng.Intn(nEnts)],
			Predicate: preds[rng.Intn(nPreds)],
			Object:    objs[rng.Intn(len(objs))],
		}
		ck := cell{tr.Predicate, tr.Object.MapKey()}
		fk := factKey{tr.Subject, ck}
		if rng.Intn(3) == 0 {
			g.Retract(tr)
			if present[fk] {
				present[fk] = false
				counts[ck]--
				freq[tr.Predicate]--
			}
		} else {
			if err := g.Assert(tr); err != nil {
				t.Fatal(err)
			}
			if !present[fk] {
				present[fk] = true
				counts[ck]++
				freq[tr.Predicate]++
			}
		}
		if step%97 == 0 {
			p := preds[rng.Intn(nPreds)]
			o := objs[rng.Intn(len(objs))]
			if got, want := g.SubjectsWithCount(p, o), counts[cell{p, o.MapKey()}]; got != want {
				t.Fatalf("step %d: SubjectsWithCount = %d, model says %d", step, got, want)
			}
			if got, want := g.PredicateFrequency(p), freq[p]; got != want {
				t.Fatalf("step %d: PredicateFrequency = %d, model says %d", step, got, want)
			}
		}
	}
	checkPomAgainstSweep(t, g, preds, objs)
}
