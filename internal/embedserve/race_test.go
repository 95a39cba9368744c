package embedserve

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"saga/internal/embedding"
	"saga/internal/kg"
	"saga/internal/vecindex"
)

// TestConcurrentConfigurationAndQueries hammers the serving reads
// (RelatedEntities, VerifyFact) while configuration writers re-install
// walk embeddings and re-calibrate the verification threshold. Before the
// atomic config snapshots this raced: walkVecs/walkIndex could be
// observed half-installed and verifyThreshold was written unlocked.
// Meaningful under -race.
func TestConcurrentConfigurationAndQueries(t *testing.T) {
	h := newHarness(t)
	entities := slices.Sorted(slices.Values(h.dataset.Ents))

	makeWalks := func(seed int64) map[kg.EntityID]vecindex.Vector {
		return embedding.TrainWalkEmbeddings(h.w.Graph, entities, embedding.WalkEmbedConfig{
			Dim: 16, WalksPerNode: 4, WalkLength: 3, Seed: seed,
		})
	}
	// Pre-train two installations outside the hammer loop so the writers
	// just swap them.
	walksA, walksB := makeWalks(1), makeWalks(2)
	if err := h.svc.SetWalkEmbeddings(walksA); err != nil {
		t.Fatal(err)
	}
	h.svc.SetVerifyThreshold(0.5)

	var writer, readers sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() { // config writer
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := walksA
			if i%2 == 1 {
				w = walksB
			}
			if err := h.svc.SetWalkEmbeddings(w); err != nil {
				t.Error(err)
				return
			}
			h.svc.SetVerifyThreshold(float64(i%10) / 10)
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			people := h.w.People
			occ := h.w.Preds["occupation"]
			for i := 0; i < 300; i++ {
				p := people[rng.Intn(len(people))]
				if _, err := h.svc.RelatedEntities(p, 5); err != nil {
					t.Error(err)
					return
				}
				v, err := h.svc.VerifyFact(p, occ, h.w.Occupations[rng.Intn(len(h.w.Occupations))])
				if err != nil {
					t.Error(err)
					return
				}
				if v.Plausible != (v.Score >= v.Threshold) {
					t.Errorf("torn verification: score %v threshold %v plausible %v", v.Score, v.Threshold, v.Plausible)
					return
				}
			}
		}(r)
	}
	// Readers are bounded; the writer reconfigures until they finish.
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestVerifyFactUnsetThresholdConcurrent checks the uncalibrated error
// path stays intact when the threshold is installed concurrently.
func TestVerifyFactUnsetThresholdConcurrent(t *testing.T) {
	h := newHarness(t)
	occ := h.w.Preds["occupation"]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		h.svc.SetVerifyThreshold(0.25)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			v, err := h.svc.VerifyFact(h.w.People[0], occ, h.w.Occupations[0])
			if err == nil && v.Threshold != 0.25 {
				t.Errorf("verification used threshold %v before calibration", v.Threshold)
				return
			}
		}
	}()
	wg.Wait()
}

func TestDecodeVectorCorruption(t *testing.T) {
	good := encodeVector(vecindex.Vector{1, 2, 3})
	if v, err := decodeVector(good); err != nil || len(v) != 3 {
		t.Fatalf("round-trip failed: %v %v", v, err)
	}

	// Header count that makes 4+4*n wrap to a small number in uint32:
	// n = 1<<30 gives 4+4n ≡ 4 (mod 2^32), and the payload is 0 bytes, so
	// a wrapping check would accept the entry and then try to allocate a
	// 4 GiB vector.
	wrap := make([]byte, 4)
	binary.LittleEndian.PutUint32(wrap, 1<<30)
	if _, err := decodeVector(wrap); err == nil {
		t.Fatal("wrapping header accepted")
	}
	// Same wrap point with a plausible payload.
	wrapPay := make([]byte, 4+8)
	binary.LittleEndian.PutUint32(wrapPay, 1<<30+2)
	if _, err := decodeVector(wrapPay); err == nil {
		t.Fatal("wrapping header with payload accepted")
	}
	// Truncated and oversized payloads.
	if _, err := decodeVector(good[:len(good)-2]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := decodeVector(append(good, 0)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if _, err := decodeVector(nil); err == nil {
		t.Fatal("nil payload accepted")
	}
	// Zero-length vector is legal.
	if v, err := decodeVector(encodeVector(nil)); err != nil || len(v) != 0 {
		t.Fatalf("empty vector round-trip: %v %v", v, err)
	}
}

// TestRelatedEntitiesCachePopulates pins the memoization behavior on
// both serving paths: the first request must install the cache epoch
// (including from the virgin state on the generation-0 fallback), and a
// repeat request must be served from it.
func TestRelatedEntitiesCachePopulates(t *testing.T) {
	h := newHarness(t)
	p := h.w.People[1]
	check := func(label string) {
		t.Helper()
		if _, err := h.svc.RelatedEntities(p, 4); err != nil {
			t.Fatal(err)
		}
		h.svc.relMu.RLock()
		defer h.svc.relMu.RUnlock()
		if len(h.svc.relCache) == 0 || h.svc.relIdx == nil {
			t.Fatalf("%s: cache not populated after a miss", label)
		}
		if _, ok := h.svc.relCache[relCacheKey{id: p, k: 4}]; !ok {
			t.Fatalf("%s: result not cached under its key", label)
		}
	}
	check("fallback (gen 0)")

	walks := embedding.TrainWalkEmbeddings(h.w.Graph, slices.Sorted(slices.Values(h.dataset.Ents)), embedding.WalkEmbedConfig{
		Dim: 16, WalksPerNode: 4, WalkLength: 3, Seed: 9,
	})
	if err := h.svc.SetWalkEmbeddings(walks); err != nil {
		t.Fatal(err)
	}
	check("walk installation (gen 1)")
}

// TestRelatedEntitiesFallbackMatchesSimilarity pins the satellite fix:
// fallback (model-space) related-entity scores must agree with the
// pairwise cosine of the two entities' embeddings, not an inner product
// against unnormalized stored vectors.
func TestRelatedEntitiesFallbackMatchesSimilarity(t *testing.T) {
	h := newHarness(t)
	p := h.w.People[0]
	res, err := h.svc.RelatedEntities(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no related entities")
	}
	vp, _ := h.svc.EntityEmbedding(p)
	for _, r := range res {
		vr, _ := h.svc.EntityEmbedding(r.ID)
		want := float64(vecindex.Cosine(vp, vr))
		if diff := r.Score - want; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("entity %v scored %v, cosine says %v", r.ID, r.Score, want)
		}
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatalf("results not sorted by cosine: %v", res)
		}
	}
}

// TestWalkEmbeddingsTieBreakIsStable: walk vectors reach the service as a
// Go map, whose iteration order differs from run to run. Several entities
// with the same vector tie at the k boundary; which of them is returned
// must be the lowest IDs, on every installation.
func TestWalkEmbeddingsTieBreakIsStable(t *testing.T) {
	h := newHarness(t)
	vecs := make(map[kg.EntityID]vecindex.Vector)
	for i, p := range h.w.People[:40] {
		v := vecindex.Vector{1, 0, 0, 0}
		if i%2 == 1 {
			v = vecindex.Vector{0.6, 0.8, 0, 0}
		}
		vecs[p] = v
	}
	subject := h.w.People[1] // twenty entities tie at 1.0, twenty at 0.6
	var first []ScoredEntity
	for round := 0; round < 8; round++ {
		cp := make(map[kg.EntityID]vecindex.Vector, len(vecs))
		for id, v := range vecs {
			cp[id] = v
		}
		if err := h.svc.SetWalkEmbeddings(cp); err != nil {
			t.Fatal(err)
		}
		got, err := h.svc.RelatedEntities(subject, 25)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 25 {
			t.Fatalf("got %d related entities, want 25", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score == got[i-1].Score && got[i].ID < got[i-1].ID {
				t.Fatalf("round %d: ties not in ascending ID order: %v", round, got)
			}
		}
		if round == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("round %d: result depends on installation order\n got %v\nwant %v", round, got, first)
		}
	}
}

// TestRelatedEntitiesCancelled: an abandoned scan returns the context's
// error and leaves nothing in the result cache.
func TestRelatedEntitiesCancelled(t *testing.T) {
	h := newHarness(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := h.w.People[2]
	if res, err := h.svc.RelatedEntitiesContext(ctx, p, 4); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled request returned %v, %v", res, err)
	}
	h.svc.relMu.RLock()
	_, cached := h.svc.relCache[relCacheKey{id: p, k: 4}]
	h.svc.relMu.RUnlock()
	if cached {
		t.Fatal("a cancelled scan's result was cached")
	}
	if res, err := h.svc.RelatedEntitiesContext(context.Background(), p, 4); err != nil || len(res) != 4 {
		t.Fatalf("live request after a cancelled one returned %v, %v", res, err)
	}
}
