package embedserve

import (
	"reflect"
	"testing"

	"saga/internal/embedding"
	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/storage"
	"saga/internal/vecindex"
	"saga/internal/workload"
)

type harness struct {
	w       *workload.World
	dataset *embedding.Dataset
	model   embedding.Model
	svc     *Service
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 60, NumClusters: 6, OccupationsPerPerson: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	d := embedding.NewDataset(graphengine.New(w.Graph).Materialize(graphengine.ViewDef{}))
	// One worker: the model is then the same on every run. Two Hogwild
	// workers interleave their updates by scheduling, and about one run
	// in 150 trained a model below TestVerifyFact's thresholds.
	m, err := embedding.Train(d, embedding.TrainConfig{
		Model: embedding.DistMult, Dim: 32, Epochs: 40, LearningRate: 0.08,
		Negatives: 4, Workers: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(w.Graph, m, d)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{w: w, dataset: d, model: m, svc: svc}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Fatal("nil args accepted")
	}
}

func TestEntityEmbeddingAndSimilarity(t *testing.T) {
	h := newHarness(t)
	p := h.w.People[0]
	v, ok := h.svc.EntityEmbedding(p)
	if !ok || len(v) == 0 {
		t.Fatal("missing embedding for person")
	}
	if s := vecindex.Cosine(v, v); s < 0.999 {
		t.Fatalf("self similarity = %v", s)
	}
	if _, ok := h.svc.EntityEmbedding(kg.EntityID(1 << 30)); ok {
		t.Fatal("unknown entity has an embedding")
	}
}

func TestRankFactsOrdering(t *testing.T) {
	h := newHarness(t)
	occ := h.w.Preds["occupation"]
	p := h.w.People[0]
	ranked, err := h.svc.RankFacts(p, occ)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked facts = %d, want 2 occupations", len(ranked))
	}
	if ranked[0].Score < ranked[1].Score {
		t.Fatal("RankFacts not sorted descending")
	}
	// Unknown subject errors.
	if _, err := h.svc.RankFacts(kg.EntityID(1<<30), occ); err == nil {
		t.Fatal("unknown subject accepted")
	}
	// Literal-only predicate yields empty ranking (dateOfBirth filtered
	// from embedding space).
	if _, err := h.svc.RankFacts(p, h.w.Preds["dateOfBirth"]); err == nil {
		t.Fatal("predicate outside embedding space accepted")
	}
}

func TestRankFactsQualityOverPeople(t *testing.T) {
	// The gold most-important occupation (cluster theme) should rank
	// first much more often than a popularity baseline manages: the theme
	// is structurally supported by every cluster co-member while being
	// deliberately unpopular (see workload.World.ThemeOccs).
	h := newHarness(t)
	occ := h.w.Preds["occupation"]
	var correct, popCorrect, total int
	for _, p := range h.w.People {
		ranked, err := h.svc.RankFacts(p, occ)
		if err != nil || len(ranked) == 0 {
			continue
		}
		total++
		gold := h.w.OccupationGold[p][0]
		if ranked[0].Triple.Object.Entity == gold {
			correct++
		}
		// Popularity baseline over the same fact set.
		best := ranked[0].Triple.Object.Entity
		bestPop := -1.0
		for _, rf := range ranked {
			if pop := h.w.Graph.Entity(rf.Triple.Object.Entity).Popularity; pop > bestPop {
				bestPop = pop
				best = rf.Triple.Object.Entity
			}
		}
		if best == gold {
			popCorrect++
		}
	}
	if total == 0 {
		t.Fatal("no people ranked")
	}
	frac := float64(correct) / float64(total)
	popFrac := float64(popCorrect) / float64(total)
	// Small slack absorbs Hogwild run-to-run noise; the experiment-level
	// comparison lives in TestE1FactRankingQuality at the repo root.
	if frac+0.02 <= popFrac {
		t.Fatalf("embedding gold-top-1 %v must beat popularity baseline %v", frac, popFrac)
	}
	if frac < 0.4 {
		t.Fatalf("gold-top-1 fraction = %v, too low", frac)
	}
}

func TestVerifyFact(t *testing.T) {
	h := newHarness(t)
	occ := h.w.Preds["occupation"]
	// Calibrate on known positives and corrupted negatives.
	var pos, neg [][3]int32
	for _, p := range h.w.People[:30] {
		hIdx, _ := h.dataset.EntityIndex(p)
		rIdx, _ := h.dataset.RelationIndex(occ)
		for _, f := range h.w.Graph.Facts(p, occ) {
			tIdx, ok := h.dataset.EntityIndex(f.Object.Entity)
			if !ok {
				continue
			}
			pos = append(pos, [3]int32{hIdx, rIdx, tIdx})
		}
		// Random person as "occupation" = implausible.
		other := h.w.People[(int(p)+7)%len(h.w.People)]
		oIdx, ok := h.dataset.EntityIndex(other)
		if ok {
			neg = append(neg, [3]int32{hIdx, rIdx, oIdx})
		}
	}
	thr := embedding.CalibrateThreshold(h.model, pos, neg)
	h.svc.SetVerifyThreshold(thr)

	// Hogwild training makes individual scores slightly noisy, so assert
	// aggregate verification quality over many people rather than one
	// specific fact.
	var trueAccepted, trueTotal, absurdRejected, absurdTotal int
	for i, p := range h.w.People[30:] { // held out from calibration
		trueOcc := h.w.OccupationGold[p][0]
		v, err := h.svc.VerifyFact(p, occ, trueOcc)
		if err != nil {
			t.Fatal(err)
		}
		trueTotal++
		if v.Plausible {
			trueAccepted++
		}
		// Clearly wrong fact: occupation = another person.
		bad, err := h.svc.VerifyFact(p, occ, h.w.People[(i*7+3)%len(h.w.People)])
		if err != nil {
			t.Fatal(err)
		}
		absurdTotal++
		if !bad.Plausible {
			absurdRejected++
		}
	}
	if frac := float64(trueAccepted) / float64(trueTotal); frac < 0.75 {
		t.Fatalf("only %.2f of true facts verified plausible", frac)
	}
	if frac := float64(absurdRejected) / float64(absurdTotal); frac < 0.75 {
		t.Fatalf("only %.2f of absurd facts rejected", frac)
	}
}

func TestVerifyFactUncalibrated(t *testing.T) {
	h := newHarness(t)
	if _, err := h.svc.VerifyFact(h.w.People[0], h.w.Preds["occupation"], h.w.Occupations[0]); err == nil {
		t.Fatal("uncalibrated verification accepted")
	}
}

func TestRelatedEntitiesModelSpace(t *testing.T) {
	h := newHarness(t)
	p := h.w.People[0]
	rel, err := h.svc.RelatedEntities(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 5 {
		t.Fatalf("related = %d", len(rel))
	}
	for _, r := range rel {
		if r.ID == p {
			t.Fatal("self in related list")
		}
	}
	for i := 1; i < len(rel); i++ {
		if rel[i].Score > rel[i-1].Score {
			t.Fatal("related list not sorted")
		}
	}
}

func TestRelatedEntitiesWalkSpace(t *testing.T) {
	h := newHarness(t)
	walk := embedding.TrainWalkEmbeddings(h.w.Graph, h.w.People, embedding.WalkEmbedConfig{Dim: 48, WalksPerNode: 25, WalkLength: 3, Seed: 5})
	if err := h.svc.SetWalkEmbeddings(walk); err != nil {
		t.Fatal(err)
	}
	p := h.w.People[0]
	rel, err := h.svc.RelatedEntities(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Majority of top-8 should share p's cluster.
	var sameCluster int
	for _, r := range rel {
		if h.w.Cluster[r.ID] == h.w.Cluster[p] {
			sameCluster++
		}
	}
	if sameCluster < 5 {
		t.Fatalf("only %d/8 related entities share the cluster", sameCluster)
	}
	// Entity without walk embedding errors.
	if _, err := h.svc.RelatedEntities(h.w.Occupations[0], 3); err == nil {
		t.Fatal("entity without walk embedding accepted")
	}
	// Vectors of unequal length are refused, and the installation in place
	// keeps serving.
	ragged := map[kg.EntityID]vecindex.Vector{h.w.People[0]: {1, 0}, h.w.People[1]: {1, 0, 0}}
	if err := h.svc.SetWalkEmbeddings(ragged); err == nil {
		t.Fatal("walk vectors of unequal length accepted")
	}
	if again, err := h.svc.RelatedEntities(p, 8); err != nil || !reflect.DeepEqual(again, rel) {
		t.Fatalf("after a refused installation: %v, %v; want %v", again, err, rel)
	}
}

func TestNearestByVector(t *testing.T) {
	h := newHarness(t)
	p := h.w.People[3]
	v, _ := h.svc.EntityEmbedding(p)
	res := h.svc.NearestByVector(v, 3)
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	if res[0].ID != p {
		t.Fatalf("nearest to own vector = %v, want %v", res[0].ID, p)
	}
}

func TestVectorCacheRoundTrip(t *testing.T) {
	h := newHarness(t)
	store, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	n, err := h.svc.PrecomputeCache(store)
	if err != nil {
		t.Fatal(err)
	}
	if n != h.dataset.NumEntities() {
		t.Fatalf("cached %d vectors, want %d", n, h.dataset.NumEntities())
	}
	// Single-vector load matches the live embedding.
	p := h.w.People[0]
	cached, err := LoadCachedVector(store, p)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := h.svc.EntityEmbedding(p)
	if len(cached) != len(live) {
		t.Fatalf("cached len %d != live %d", len(cached), len(live))
	}
	for i := range live {
		if cached[i] != live[i] {
			t.Fatal("cached vector differs from live")
		}
	}
	// Full index restore.
	idx, loaded, err := NewFromCache(store)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("restored %d vectors, want %d", loaded, n)
	}
	got, ok := idx.Get(uint64(p))
	if !ok || got[0] != live[0] {
		t.Fatal("restored index missing entity vector")
	}
}

func TestDecodeVectorErrors(t *testing.T) {
	if _, err := decodeVector(nil); err == nil {
		t.Fatal("nil payload accepted")
	}
	if _, err := decodeVector([]byte{1, 0, 0, 0}); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Valid round trip.
	v := vecindex.Vector{1.5, -2.25, 0}
	got, err := decodeVector(encodeVector(v))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatal("round trip mismatch")
		}
	}
}
