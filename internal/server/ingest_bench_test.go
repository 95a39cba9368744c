package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"saga/internal/kg"
	"saga/saga"
)

// ingestRing renders a ring of /ingest bodies in the end-to-end
// benchmark's shape — size asserts (half collaborator edges, a quarter
// awards, a quarter libraryID string literals, Zipf-skewed subjects, all
// new to the graph) plus the retracts of the batch lag positions back —
// so that posting ring[i%len] forever keeps the graph level: each batch
// re-asserts facts its successor retracted lag batches ago.
func ingestRing(tb testing.TB, w *saga.World, g *saga.Graph, size, lag int) []string {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.01, 1, uint64(len(w.People)-1))
	person := func() kg.EntityID { return w.People[zipf.Uint64()] }
	key := func(id kg.EntityID) string { return g.Entity(id).Key }
	pred := func(name string) kg.PredicateID {
		p, ok := g.PredicateByName(name)
		if !ok {
			tb.Fatalf("world has no predicate %q", name)
		}
		return p.ID
	}
	collab, award := pred("collaborator"), pred("award")

	seen := make(map[string]bool)
	batches := make([][]string, 2*lag)
	serial := 0
	for i := range batches {
		for len(batches[i]) < size {
			s := person()
			var t string
			switch n := len(batches[i]) % 4; {
			case n < 2:
				o := person()
				if o == s || g.HasFact(s, collab, kg.EntityValue(o)) {
					continue
				}
				t = fmt.Sprintf(`{"subject":%q,"predicate":"collaborator","object":{"key":%q}}`, key(s), key(o))
			case n == 2:
				o := w.Awards[rng.Intn(len(w.Awards))]
				if g.HasFact(s, award, kg.EntityValue(o)) {
					continue
				}
				t = fmt.Sprintf(`{"subject":%q,"predicate":"award","object":{"key":%q}}`, key(s), key(o))
			default:
				serial++
				t = fmt.Sprintf(`{"subject":%q,"predicate":"libraryID","object":{"string":"BENCH-%08d"}}`, key(s), serial)
			}
			if seen[t] {
				continue
			}
			seen[t] = true
			batches[i] = append(batches[i], t)
		}
	}
	ring := make([]string, len(batches))
	for i := range batches {
		retracts := batches[(i+len(batches)-lag)%len(batches)]
		ring[i] = `{"asserts":[` + strings.Join(batches[i], ",") + `],"retracts":[` + strings.Join(retracts, ",") + `]}`
	}
	return ring
}

// BenchmarkIngestBatch posts the end-to-end benchmark's /ingest batch —
// 32 asserts + 32 retracts against a durable 20k-person world — through
// the handler into a recorder. allocs/op, B/op and wal_bytes/op — how much
// the data directory's log segments grow per batch — are the stable
// numbers (ns/op includes one fsync).
func BenchmarkIngestBatch(b *testing.B) {
	const size, lag = 32, 64
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 20000, NumClusters: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	p, _, err := saga.OpenDurablePlatform(dir, saga.DurableOptions{Sync: saga.SyncEachCommit})
	if err != nil {
		b.Fatal(err)
	}
	defer p.CloseDurable()
	if err := saga.ImportGraph(p.Graph(), w.Graph); err != nil {
		b.Fatal(err)
	}
	if _, err := p.CheckpointDurable(); err != nil {
		b.Fatal(err)
	}
	srv, err := New(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	ring := ingestRing(b, w, p.Graph(), size, lag)
	want := `{"added":` + strconv.Itoa(size) + `,"retracted":` + strconv.Itoa(size) + `,`
	post := func(i int, steady bool) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(ring[i%len(ring)])))
		if rec.Code != http.StatusOK || (steady && !strings.HasPrefix(rec.Body.String(), want)) {
			b.Fatalf("batch %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	// One lap of the ring reaches the steady state: from then on every
	// batch adds size facts and retracts size facts.
	for i := 0; i < len(ring); i++ {
		post(i, false)
	}
	walBefore := segmentBytes(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(len(ring)+i, true)
	}
	b.StopTimer()
	b.ReportMetric(float64(segmentBytes(b, dir)-walBefore)/float64(b.N), "wal_bytes/op")
}

// segmentBytes sums the sizes of the write-ahead log segments in dir.
func segmentBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			tb.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}
