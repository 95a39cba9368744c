package kg

import (
	"sync"
	"testing"
	"time"
)

// start runs fn on its own goroutine and returns a channel that closes
// when fn returns.
func start(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// within fails the test unless fn returns within d, so a deadlock is a
// failure rather than a hung test binary.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	select {
	case <-start(fn):
	case <-time.After(d):
		t.Fatalf("still blocked after %v: deadlock", d)
	}
}

// awaitWriter returns once the writer has either finished or announced
// itself on mu: from then on a new read lock on mu waits for it.
func awaitWriter(mu *sync.RWMutex, done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		if !mu.TryRLock() {
			return
		}
		mu.RUnlock()
		time.Sleep(time.Millisecond)
	}
}

// Callbacks read the dictionaries while writers wait for the locks the
// callbacks' callers hold. Entities and Predicates hold no lock while
// their callback runs, so a dictionary read inside one cannot queue
// behind a dictionary writer that waits for the callback's caller; the
// triple visitors allow dictionary reads because no path holds the
// dictionary lock while it waits for the graph lock. The first case is how the
// on-device PIR server indexes the graph, the second how the ODKE
// profiler finds stale facts.
func TestDictionaryReadsInsideCallbacksWithQueuedWriters(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	b := mustEntity(t, g, "Q2", "B")
	p := mustPredicate(t, g, "links")
	if err := g.Assert(Triple{Subject: a, Predicate: p, Object: EntityValue(b)}); err != nil {
		t.Fatal(err)
	}

	var writers []<-chan struct{}
	within(t, 2*time.Second, func() {
		g.Entities(func(e *Entity) bool {
			w := start(func() {
				if _, err := g.AddPredicate(Predicate{Name: "added-" + e.Key}); err != nil {
					t.Error(err)
				}
			})
			writers = append(writers, w)
			awaitWriter(&g.dictMu, w)
			if g.Predicate(p) == nil {
				t.Error("Predicate inside Entities returned nil")
			}
			return true
		})
	})
	for _, w := range writers {
		<-w
	}

	writers = writers[:0]
	within(t, 2*time.Second, func() {
		g.Entities(func(e *Entity) bool {
			g.OutgoingFunc(e.ID, func(tr Triple) bool {
				graphW := start(func() {
					if err := g.Assert(Triple{Subject: e.ID, Predicate: p, Object: IntValue(1)}); err != nil {
						t.Error(err)
					}
				})
				awaitWriter(&g.mu, graphW)
				dictW := start(func() { g.SetPopularity(e.ID, 0.5) })
				awaitWriter(&g.dictMu, dictW)
				writers = append(writers, graphW, dictW)
				if g.Predicate(tr.Predicate) == nil || g.Entity(tr.Object.Entity) == nil {
					t.Error("dictionary read inside OutgoingFunc returned nil")
				}
				return false
			})
			return true
		})
	})
	for _, w := range writers {
		<-w
	}
}

// The chunked reads run their callbacks with no lock held, so a callback
// may read the triple indexes while a writer waits for the graph lock:
// were the read lock held across the callback, the writer would queue
// behind it and the callback's own read behind the writer. This is how a
// join reads on from a fact list or a posting.
func TestChunkedCallbacksReadWithQueuedWriter(t *testing.T) {
	g := NewGraph()
	a := mustEntity(t, g, "Q1", "A")
	b := mustEntity(t, g, "Q2", "B")
	p := mustPredicate(t, g, "links")
	if err := g.Assert(Triple{Subject: a, Predicate: p, Object: EntityValue(b)}); err != nil {
		t.Fatal(err)
	}
	// queueWriter starts an assert, waits until it has finished or queued
	// on the graph lock, then reads the graph.
	var writers []<-chan struct{}
	queueWriter := func(i int) {
		w := start(func() {
			if err := g.Assert(Triple{Subject: b, Predicate: p, Object: IntValue(int64(i))}); err != nil {
				t.Error(err)
			}
		})
		awaitWriter(&g.mu, w)
		writers = append(writers, w)
		if g.FactCount(a, p) != 1 || g.SubjectsWithCount(p, EntityValue(b)) != 1 {
			t.Error("a read inside a chunked callback lost the fact")
		}
	}
	within(t, 2*time.Second, func() {
		g.FactsChunked(a, p, 1, func([]Triple) bool {
			queueWriter(1)
			return true
		})
		g.SubjectsWithChunked(p, EntityValue(b), NoEntity, 1, func([]EntityID) bool {
			queueWriter(2)
			return true
		})
	})
	for _, w := range writers {
		<-w
	}
	if n := g.FactCount(b, p); n != 2 {
		t.Fatalf("the queued writers added %d facts, want 2", n)
	}
}
