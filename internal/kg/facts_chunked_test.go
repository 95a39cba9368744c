package kg

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFactsChunkedMatchesFactsFunc: the chunked read delivers the same
// triples in the same order as the streaming read, across chunk sizes
// that do and do not divide the list length.
func TestFactsChunkedMatchesFactsFunc(t *testing.T) {
	g := NewGraph()
	s := mustEntity(t, g, "Q1", "subj")
	p := mustPredicate(t, g, "score")
	const total = 10
	for i := 0; i < total; i++ {
		if err := g.Assert(Triple{Subject: s, Predicate: p, Object: IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var want []Triple
	g.FactsFunc(s, p, func(tr Triple) bool {
		want = append(want, tr)
		return true
	})
	for _, chunk := range []int{1, 3, 10, 1000, 0 /* default */, -5} {
		var got []Triple
		g.FactsChunked(s, p, chunk, func(c []Triple) bool {
			got = append(got, c...)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: %d triples, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i].IdentityKey() != want[i].IdentityKey() {
				t.Fatalf("chunk=%d: order diverged at %d", chunk, i)
			}
		}
	}
}

// TestFactsChunkedEarlyStop: returning false stops the enumeration.
func TestFactsChunkedEarlyStop(t *testing.T) {
	g := NewGraph()
	s := mustEntity(t, g, "Q1", "subj")
	p := mustPredicate(t, g, "score")
	for i := 0; i < 9; i++ {
		if err := g.Assert(Triple{Subject: s, Predicate: p, Object: IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	g.FactsChunked(s, p, 2, func(c []Triple) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("callback ran %d times after returning false", calls)
	}
}

func cmpObjectKey(a, b Triple) int { return a.Object.MapKey().Compare(b.Object.MapKey()) }

// TestFactsChunkedSpliceMidRead: retracts and asserts between chunks
// splice the list on both sides of the read position; the read resumes
// by key, so it neither restarts nor re-delivers, and the facts that
// stayed are delivered exactly once.
func TestFactsChunkedSpliceMidRead(t *testing.T) {
	g := NewGraph()
	s := mustEntity(t, g, "Q1", "subj")
	p := mustPredicate(t, g, "score")
	const total = 40
	var stable []Triple
	for i := 0; i < total; i++ {
		tr := Triple{Subject: s, Predicate: p, Object: IntValue(int64(2 * i))}
		if err := g.Assert(tr); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			stable = append(stable, tr)
		}
	}
	var delivered []Triple
	first := true
	g.FactsChunked(s, p, 4, func(c []Triple) bool {
		delivered = append(delivered, c...)
		if first {
			first = false
			for i := 1; i < total; i += 2 {
				if !g.Retract(Triple{Subject: s, Predicate: p, Object: IntValue(int64(2 * i))}) {
					t.Fatal("retract failed")
				}
				// An odd value lands between two survivors, behind or ahead.
				if err := g.Assert(Triple{Subject: s, Predicate: p, Object: IntValue(int64(2*i + 1))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return true
	})
	checkExactlyOnce(t, delivered, stable, cmpObjectKey)
}

// TestFactsChunkedExactlyOnceUnderChurn: with a writer churning the
// interleaved half of a fact list, every chunked pass delivers each
// stable fact exactly once and no fact twice.
func TestFactsChunkedExactlyOnceUnderChurn(t *testing.T) {
	g := NewGraph()
	s := mustEntity(t, g, "Q1", "subj")
	p := mustPredicate(t, g, "score")
	const total = 300
	var stable []Triple
	for i := 0; i < total; i++ {
		tr := Triple{Subject: s, Predicate: p, Object: IntValue(int64(i))}
		if err := g.Assert(tr); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			stable = append(stable, tr)
		}
	}
	var (
		stop   atomic.Bool
		writes atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; !stop.Load(); i = (i + 2) % total {
			tr := Triple{Subject: s, Predicate: p, Object: IntValue(int64(i))}
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
		var delivered []Triple
		g.FactsChunked(s, p, 8, func(c []Triple) bool {
			delivered = append(delivered, c...)
			return true
		})
		checkExactlyOnce(t, delivered, stable, cmpObjectKey)
	}
	stop.Store(true)
	wg.Wait()
}
