package kg

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// chunkedFixture builds a graph with n subjects all asserting
// (pred, team) plus a decoy posting on the same predicate, and returns
// the pieces the chunked-read tests need.
func chunkedFixture(t testing.TB, n int) (g *Graph, pred PredicateID, team Value, subs []EntityID) {
	t.Helper()
	g = NewGraph()
	p, err := g.AddPredicate(Predicate{Name: "memberOf"})
	if err != nil {
		t.Fatal(err)
	}
	teamID, err := g.AddEntity(Entity{Key: "team"})
	if err != nil {
		t.Fatal(err)
	}
	decoy, err := g.AddEntity(Entity{Key: "decoy"})
	if err != nil {
		t.Fatal(err)
	}
	team = EntityValue(teamID)
	batch := make([]Triple, 0, n+1)
	for i := 0; i < n; i++ {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, id)
		batch = append(batch, Triple{Subject: id, Predicate: p, Object: team})
	}
	batch = append(batch, Triple{Subject: subs[0], Predicate: p, Object: EntityValue(decoy)})
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	return g, p, team, subs
}

// Chunked enumeration over a quiescent graph must reproduce
// SubjectsWithFunc exactly — same subjects, same posting order — in chunks
// no larger than requested, and from any resume key.
func TestSubjectsWithChunkedMatchesSlab(t *testing.T) {
	const n = 300
	g, pred, team, _ := chunkedFixture(t, n)
	want := subjectsWith(g, pred, team)
	if len(want) != n {
		t.Fatalf("slab read = %d subjects, want %d", len(want), n)
	}
	for _, chunkSize := range []int{1, 7, 64, 300, 1000} {
		var got []EntityID
		chunks := 0
		g.SubjectsWithChunked(pred, team, NoEntity, chunkSize, func(chunk []EntityID) bool {
			if len(chunk) > chunkSize {
				t.Fatalf("chunkSize %d: got chunk of %d", chunkSize, len(chunk))
			}
			got = append(got, chunk...)
			chunks++
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("chunkSize %d: %d subjects, want %d", chunkSize, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunkSize %d: subject %d = %d, slab read has %d (order diverged)", chunkSize, i, got[i], want[i])
			}
		}
		if wantChunks := (n + chunkSize - 1) / chunkSize; chunks != wantChunks {
			t.Fatalf("chunkSize %d: delivered %d chunks, want %d", chunkSize, chunks, wantChunks)
		}
	}
	// after is exclusive, whether or not it names a member of the posting.
	for _, after := range []EntityID{want[0] - 1, want[0], want[n/2], want[n-1], want[n-1] + 1} {
		var got []EntityID
		g.SubjectsWithChunked(pred, team, after, 7, func(chunk []EntityID) bool {
			got = append(got, chunk...)
			return true
		})
		i, found := slices.BinarySearch(want, after)
		if found {
			i++
		}
		if !slices.Equal(got, want[i:]) {
			t.Fatalf("after=%d: got %v, want %v", after, got, want[i:])
		}
	}
}

// Early termination stops the enumeration after the first chunk; the
// graph must remain writable afterwards (no lock leaked).
func TestSubjectsWithChunkedEarlyStop(t *testing.T) {
	g, pred, team, subs := chunkedFixture(t, 100)
	calls := 0
	g.SubjectsWithChunked(pred, team, NoEntity, 10, func(chunk []EntityID) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early-stopped enumeration delivered %d chunks, want 1", calls)
	}
	if !g.Retract(Triple{Subject: subs[0], Predicate: pred, Object: team}) {
		t.Fatal("retract after early-stopped enumeration failed")
	}
}

// checkExactlyOnce holds one chunked pass to the key-resume guarantee:
// the delivered keys are strictly ascending (so none is delivered twice)
// and every key that was present throughout is among them.
func checkExactlyOnce[K any](t *testing.T, delivered, stable []K, cmp func(a, b K) int) {
	t.Helper()
	for i := 1; i < len(delivered); i++ {
		if cmp(delivered[i-1], delivered[i]) >= 0 {
			t.Fatalf("delivery not strictly ascending at %d: %v then %v", i, delivered[i-1], delivered[i])
		}
	}
	for _, k := range stable {
		if _, ok := slices.BinarySearchFunc(delivered, k, cmp); !ok {
			t.Fatalf("%v was present throughout but never delivered", k)
		}
	}
}

// Splices between chunk reads — ahead of and behind the read position —
// shift every offset, and the read must not notice: it resumes by key, so
// the survivors are delivered exactly once and nothing is re-delivered.
func TestSubjectsWithChunkedSpliceMidRead(t *testing.T) {
	const n = 200
	g, pred, team, subs := chunkedFixture(t, n)
	// Odd-indexed subjects are retracted from inside the first callback
	// (it runs lock-free); the even-indexed ones stay throughout.
	var stable []EntityID
	for i := 0; i < n; i += 2 {
		stable = append(stable, subs[i])
	}
	var delivered []EntityID
	first := true
	g.SubjectsWithChunked(pred, team, NoEntity, 16, func(chunk []EntityID) bool {
		delivered = append(delivered, chunk...)
		if first {
			first = false
			for i := 1; i < n; i += 2 {
				if !g.Retract(Triple{Subject: subs[i], Predicate: pred, Object: team}) {
					t.Fatalf("retract of %d failed", subs[i])
				}
			}
		}
		return true
	})
	checkExactlyOnce(t, delivered, stable, cmp.Compare[EntityID])
	if len(delivered) != 16+(n-16)/2 {
		t.Fatalf("delivered %d subjects: want the first chunk plus the survivors after it (%d)", len(delivered), 16+(n-16)/2)
	}
}

// Under concurrent churn on the interleaved half of the posting, every
// pass of a chunked read delivers each stable subject exactly once and no
// subject twice.
func TestSubjectsWithChunkedExactlyOnceUnderChurn(t *testing.T) {
	const n = 400
	g, pred, team, subs := chunkedFixture(t, n)
	var stable []EntityID
	for i := 0; i < n; i += 2 {
		stable = append(stable, subs[i])
	}
	var (
		stop   atomic.Bool
		writes atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; !stop.Load(); i = (i + 2) % n {
			tr := Triple{Subject: subs[i], Predicate: pred, Object: team}
			if !g.Retract(tr) {
				if err := g.Assert(tr); err != nil {
					t.Error(err)
					return
				}
			}
			writes.Add(1)
		}
	}()
	for pass := 0; pass < 50 || writes.Load() < 2000; pass++ {
		var delivered []EntityID
		g.SubjectsWithChunked(pred, team, NoEntity, 16, func(chunk []EntityID) bool {
			delivered = append(delivered, chunk...)
			return true
		})
		checkExactlyOnce(t, delivered, stable, cmp.Compare[EntityID])
	}
	stop.Store(true)
	wg.Wait()
}
