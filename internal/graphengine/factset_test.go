package graphengine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saga/internal/kg"
)

// FactSet against a model: a map from fact identity to the stored triple.
// One byte-driven interpreter feeds both, so the seeded property test and
// the fuzz target exercise the same steps; after every step the set's
// lists must be strictly ascending, its three indexes must agree with
// each other, and every read must answer what the model answers.

const (
	fsSubjects = 4
	fsPreds    = 3
)

// fsObjects is a small, hostile object domain: NaNs that differ only in
// payload bits, both zeros, strings that are empty or full of the
// separators rendered keys once collided on, and values of different
// kinds sharing one payload.
var fsObjects = []kg.Value{
	kg.FloatValue(math.NaN()),
	kg.FloatValue(math.Float64frombits(0x7ff8000000000001)),
	kg.FloatValue(0),
	kg.FloatValue(math.Copysign(0, -1)),
	kg.StringValue(""),
	kg.StringValue("|"),
	kg.StringValue("a|b\x00c"),
	kg.StringValue("e:1"),
	kg.EntityValue(1),
	kg.IntValue(1),
	kg.BoolValue(true),
	kg.TimeValue(time.Unix(0, 1)),
	kg.EntityValue(2),
	kg.IntValue(-1),
}

// sameStored reports whether a and b are the same stored copy of one
// fact (== on triples would call a NaN-valued fact unequal to itself).
func sameStored(a, b kg.Triple) bool {
	return a.IdentityKey() == b.IdentityKey() && a.Prov.Source == b.Prov.Source
}

// driveFactSet interprets ops four bytes at a time — operation, subject,
// predicate, object — against a fresh set and its model.
func driveFactSet(t *testing.T, ops []byte) {
	t.Helper()
	fs := NewFactSet()
	model := make(map[kg.TripleKey]kg.Triple)
	for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
		tr := kg.Triple{
			Subject:   kg.EntityID(1 + ops[1]%fsSubjects),
			Predicate: kg.PredicateID(1 + ops[2]%fsPreds),
			Object:    fsObjects[int(ops[3])%len(fsObjects)],
			Prov:      kg.Provenance{Source: fmt.Sprint(step)}, // tells a stored copy from a later duplicate
		}
		k := tr.IdentityKey()
		stored, present := model[k]
		switch ops[0] % 3 {
		case 0, 1: // inserts outnumber removes so the lists grow
			if fs.Insert(tr) == present {
				t.Fatalf("step %d: Insert(%v) reported new=%v, model has it: %v", step, tr, !present, present)
			}
			if !present {
				model[k] = tr
			}
		case 2:
			got, ok := fs.Remove(k)
			if ok != present || !sameStored(got, stored) {
				t.Fatalf("step %d: Remove(%v) = %v, %v; model holds %v, %v", step, k, got, ok, stored, present)
			}
			delete(model, k)
		}
		checkFactSet(t, step, fs, model)
	}
}

// checkFactSet holds the set's internals and every read to the model.
func checkFactSet(t *testing.T, step int, fs *FactSet, model map[kg.TripleKey]kg.Triple) {
	t.Helper()
	if fs.Len() != len(model) {
		t.Fatalf("step %d: Len = %d, model holds %d", step, fs.Len(), len(model))
	}
	listed := 0
	for sp, list := range fs.facts {
		if len(list) == 0 {
			t.Fatalf("step %d: empty fact list kept for %v", step, sp)
		}
		for i := range list {
			if i > 0 && list[i-1].Key().Compare(list[i].Key()) >= 0 {
				t.Fatalf("step %d: fact list %v not strictly ascending at %d", step, sp, i)
			}
			if tr := list[i].Triple(sp.S, sp.P); !sameStored(model[tr.IdentityKey()], tr) {
				t.Fatalf("step %d: fact list %v holds %v, model holds %v", step, sp, tr, model[tr.IdentityKey()])
			}
		}
		listed += len(list)
	}
	posted := 0
	for p, pp := range fs.preds {
		n := 0
		for obj, post := range pp.objs {
			if len(post) == 0 {
				t.Fatalf("step %d: empty posting kept for (%d, %v)", step, p, obj)
			}
			for i, s := range post {
				if i > 0 && post[i-1] >= s {
					t.Fatalf("step %d: posting (%d, %v) not strictly ascending at %d", step, p, obj, i)
				}
				if _, ok := model[kg.TripleKey{Subject: s, Predicate: p, Object: obj}]; !ok {
					t.Fatalf("step %d: posting (%d, %v) holds subject %d the model does not", step, p, obj, s)
				}
			}
			n += len(post)
		}
		if n != pp.total || n == 0 {
			t.Fatalf("step %d: predicate %d total = %d, postings hold %d", step, p, pp.total, n)
		}
		posted += n
	}
	if listed != len(model) || posted != len(model) {
		t.Fatalf("step %d: indexes disagree: %d listed, %d posted, model holds %d", step, listed, posted, len(model))
	}

	// Reads, over the whole probe space (so misses too).
	for p := kg.PredicateID(1); p <= fsPreds; p++ {
		var under []kg.TripleKey
		for k := range model {
			if k.Predicate == p {
				under = append(under, k)
			}
		}
		slices.SortFunc(under, kg.TripleKey.Compare)
		if fs.Frequency(p) != len(under) {
			t.Fatalf("step %d: Frequency(%d) = %d, want %d", step, p, fs.Frequency(p), len(under))
		}
		var entries []kg.TripleKey
		for _, tr := range fs.Entries(p) {
			entries = append(entries, tr.IdentityKey())
		}
		slices.SortFunc(entries, kg.TripleKey.Compare)
		if !slices.Equal(entries, under) {
			t.Fatalf("step %d: Entries(%d) = %v, want %v", step, p, entries, under)
		}
		for s := kg.EntityID(1); s <= fsSubjects; s++ {
			facts := fs.Facts(s, p)
			var want []kg.Triple
			for k, tr := range model {
				if k.Subject == s && k.Predicate == p {
					want = append(want, tr)
				}
			}
			slices.SortFunc(want, cmpObject)
			if !slices.EqualFunc(facts, want, sameStored) || fs.FactCount(s, p) != len(facts) {
				t.Fatalf("step %d: Facts(%d,%d) = %v (count %d), model holds %v", step, s, p, facts, fs.FactCount(s, p), want)
			}
		}
		for _, o := range fsObjects {
			key := o.MapKey()
			var want []kg.EntityID
			for s := kg.EntityID(1); s <= fsSubjects; s++ {
				k := kg.TripleKey{Subject: s, Predicate: p, Object: key}
				_, in := model[k]
				if fs.Has(k) != in {
					t.Fatalf("step %d: Has(%v) = %v, model says %v", step, k, !in, in)
				}
				if in {
					want = append(want, s)
				}
			}
			if fs.SubjectCount(p, key) != len(want) {
				t.Fatalf("step %d: SubjectCount(%d,%v) = %d, want %d", step, p, key, fs.SubjectCount(p, key), len(want))
			}
			for after := kg.EntityID(0); after <= fsSubjects; after++ {
				rest := want[upTo(want, after, cmpEntity):]
				if got := fs.Subjects(p, key, after); !slices.Equal(got, rest) {
					t.Fatalf("step %d: Subjects(%d,%v) after %d = %v, want %v", step, p, key, after, got, rest)
				}
			}
		}
	}
}

// TestFactSetMatchesModel: seeded random histories, long enough that
// every list fills, drains and refills.
func TestFactSetMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 4*600)
		rand.New(rand.NewSource(seed)).Read(ops)
		driveFactSet(t, ops)
	}
}

// TestFactSetNilReadsAsEmpty: the layered view keeps no removed-facts set
// for derived reads, and probes it all the same.
func TestFactSetNilReadsAsEmpty(t *testing.T) {
	var fs *FactSet
	k := kg.TripleKey{Subject: 1, Predicate: 1, Object: kg.IntValue(1).MapKey()}
	if fs.Has(k) || fs.FactCount(1, 1) != 0 || fs.SubjectCount(1, k.Object) != 0 || fs.Frequency(1) != 0 ||
		fs.Facts(1, 1) != nil || fs.Subjects(1, k.Object, 0) != nil {
		t.Fatal("a nil FactSet answered a read as non-empty")
	}
}

// FuzzFactSet drives the same model from arbitrary bytes.
func FuzzFactSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0})             // insert, duplicate insert, remove
	f.Add([]byte{0, 1, 1, 0, 0, 1, 1, 1, 2, 1, 1, 0, 0, 1, 1, 0}) // two NaN payloads side by side
	f.Add([]byte{0, 0, 0, 8, 0, 0, 0, 9, 0, 1, 0, 8, 2, 0, 0, 9}) // entity 1 beside int 1
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*200 {
			ops = ops[:4*200] // each step checks the whole probe space
		}
		driveFactSet(t, ops)
	})
}

// TestFactSetReadsBesideWriter: readers on every access path beside a
// writer splicing the same lists. Each read is a copy taken under the
// lock, so it is internally sorted whatever the writer does next; under
// -race this is also the set's locking test.
func TestFactSetReadsBesideWriter(t *testing.T) {
	fs := NewFactSet()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				facts := fs.Facts(1, 1)
				if !slices.IsSortedFunc(facts, cmpObject) {
					t.Errorf("Facts beside a writer came back unsorted: %v", facts)
					return
				}
				key := kg.IntValue(1).MapKey()
				if subs := fs.Subjects(1, key, 0); !slices.IsSorted(subs) {
					t.Errorf("Subjects beside a writer came back unsorted: %v", subs)
					return
				}
				fs.Has(kg.TripleKey{Subject: 1, Predicate: 1, Object: key})
				seen := make(map[kg.TripleKey]bool)
				for _, tr := range fs.Entries(1) {
					if seen[tr.IdentityKey()] {
						t.Errorf("Entries beside a writer returned %v twice", tr)
						return
					}
					seen[tr.IdentityKey()] = true
				}
				_ = fs.FactCount(1, 1) + fs.SubjectCount(1, key) + fs.Frequency(1) + fs.Len()
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		tr := kg.Triple{Subject: kg.EntityID(1 + rng.Intn(fsSubjects)), Predicate: 1, Object: kg.IntValue(int64(rng.Intn(64)))}
		if rng.Intn(2) == 0 {
			fs.Insert(tr)
		} else {
			fs.Remove(tr.IdentityKey())
		}
	}
	stop.Store(true)
	wg.Wait()
}
