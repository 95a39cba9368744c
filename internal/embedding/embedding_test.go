package embedding

import (
	"math"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/workload"
)

func testWorld(t *testing.T) *workload.World {
	t.Helper()
	w, err := workload.GenerateKG(workload.KGConfig{
		NumPeople: 80, NumClusters: 8, OccupationsPerPerson: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func entityView(t *testing.T, w *workload.World) []kg.Triple {
	t.Helper()
	eng := graphengine.New(w.Graph)
	return eng.Materialize(graphengine.ViewDef{DropLiteralFacts: true}).Triples()
}

func TestNewDatasetFiltersLiterals(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(w.Graph.AllTriples())
	for _, tr := range d.Triples {
		if tr[0] < 0 || int(tr[0]) >= d.NumEntities() || tr[2] < 0 || int(tr[2]) >= d.NumEntities() {
			t.Fatalf("triple index out of range: %v", tr)
		}
	}
	stats := kg.ComputeStats(w.Graph)
	if len(d.Triples) != stats.EntityTriples {
		t.Fatalf("dataset triples = %d, want %d entity facts", len(d.Triples), stats.EntityTriples)
	}
}

func TestDatasetKnownAndIndexes(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	if d.NumEntities() == 0 || d.NumRelations() == 0 {
		t.Fatal("empty vocab")
	}
	tr := d.Triples[0]
	if !d.Known(tr[0], tr[1], tr[2]) {
		t.Fatal("first triple not known")
	}
	if d.Known(tr[0], tr[1], int32(d.NumEntities())) {
		t.Fatal("out-of-range triple reported known")
	}
	// Round trip entity index.
	gid := d.Ents[tr[0]]
	idx, ok := d.EntityIndex(gid)
	if !ok || idx != tr[0] {
		t.Fatalf("EntityIndex round trip: %v %v", idx, ok)
	}
	rid := d.Rels[tr[1]]
	ridx, ok := d.RelationIndex(rid)
	if !ok || ridx != tr[1] {
		t.Fatalf("RelationIndex round trip: %v %v", ridx, ok)
	}
	if _, ok := d.EntityIndex(kg.EntityID(1 << 30)); ok {
		t.Fatal("unknown entity resolved")
	}
}

func TestSplit(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	train, test, err := d.Split(0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Triples)+len(test.Triples) != len(d.Triples) {
		t.Fatal("split loses triples")
	}
	if len(test.Triples) == 0 || len(train.Triples) == 0 {
		t.Fatal("degenerate split")
	}
	// Deterministic under seed.
	_, test2, err := d.Split(0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(test.Triples) != len(test2.Triples) || test.Triples[0] != test2.Triples[0] {
		t.Fatal("split not deterministic")
	}
	if _, _, err := d.Split(0, 1); err == nil {
		t.Fatal("testFrac=0 accepted")
	}
	if _, _, err := d.Split(1, 1); err == nil {
		t.Fatal("testFrac=1 accepted")
	}
}

func TestModelShapesAndErrors(t *testing.T) {
	for _, kind := range []ModelKind{TransE, DistMult, ComplEx} {
		m, err := NewModel(kind, 10, 3, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m.Kind() != kind {
			t.Fatalf("kind = %v", m.Kind())
		}
		if m.NumEntities() != 10 || m.NumRelations() != 3 {
			t.Fatalf("%s shape wrong", kind)
		}
		v := m.EntityVector(0)
		wantLen := 8
		if kind == ComplEx {
			wantLen = 16 // re|im concatenation
		}
		if len(v) != wantLen {
			t.Fatalf("%s vector len = %d, want %d", kind, len(v), wantLen)
		}
		// Score must be finite.
		s := m.Score(0, 0, 1)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("%s initial score = %v", kind, s)
		}
	}
	if _, err := NewModel("bogus", 10, 3, 8, 1); err == nil {
		t.Fatal("unknown model kind accepted")
	}
	if _, err := NewModel(TransE, 0, 3, 8, 1); err == nil {
		t.Fatal("zero entities accepted")
	}
}

func TestModelDeterministicInit(t *testing.T) {
	a, _ := NewModel(DistMult, 5, 2, 4, 42)
	b, _ := NewModel(DistMult, 5, 2, 4, 42)
	for e := int32(0); e < 5; e++ {
		va, vb := a.EntityVector(e), b.EntityVector(e)
		for i := range va {
			if va[i] != vb[i] {
				t.Fatal("same-seed models differ")
			}
		}
	}
	c, _ := NewModel(DistMult, 5, 2, 4, 43)
	diff := false
	va, vc := a.EntityVector(0), c.EntityVector(0)
	for i := range va {
		if va[i] != vc[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical init")
	}
}

// trainAndEval trains a model on the synthetic world and returns filtered
// link-prediction metrics.
func trainAndEval(t *testing.T, kind ModelKind, workers int) EvalResult {
	t.Helper()
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	train, test, err := d.Split(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(train, TrainConfig{
		Model: kind, Dim: 24, Epochs: 30, LearningRate: 0.08,
		Negatives: 4, Workers: workers, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Evaluate(m, d, test.Triples)
}

func TestTrainingBeatsRandomTransE(t *testing.T) {
	res := trainAndEval(t, TransE, 2)
	// Random ranking over ~100 entities would give MRR ~0.05.
	if res.MRR < 0.15 {
		t.Fatalf("TransE MRR = %v, no better than random", res.MRR)
	}
	if res.Hits10 < 0.3 {
		t.Fatalf("TransE Hits@10 = %v", res.Hits10)
	}
}

func TestTrainingBeatsRandomDistMult(t *testing.T) {
	res := trainAndEval(t, DistMult, 2)
	if res.MRR < 0.15 {
		t.Fatalf("DistMult MRR = %v", res.MRR)
	}
}

func TestTrainingBeatsRandomComplEx(t *testing.T) {
	res := trainAndEval(t, ComplEx, 2)
	if res.MRR < 0.15 {
		t.Fatalf("ComplEx MRR = %v", res.MRR)
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	d := NewDataset(nil)
	if _, err := Train(d, TrainConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestHogwildParallelismPreservesQuality(t *testing.T) {
	seq := trainAndEval(t, DistMult, 1)
	par := trainAndEval(t, DistMult, 4)
	// Hogwild introduces nondeterminism but quality should be comparable.
	if par.MRR < seq.MRR*0.5 {
		t.Fatalf("parallel MRR %v collapsed vs sequential %v", par.MRR, seq.MRR)
	}
}

func TestPartitionedTrainingQuality(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	train, test, err := d.Split(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(train, TrainConfig{
		Model: DistMult, Dim: 24, Epochs: 30, LearningRate: 0.08,
		Negatives: 4, Workers: 2, Seed: 7, Partitions: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate(m, d, test.Triples)
	if res.MRR < 0.15 {
		t.Fatalf("partitioned training MRR = %v", res.MRR)
	}
}

func TestDiskPartitionRoundTrip(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	dir := t.TempDir()
	paths, err := WritePartitions(d, dir, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("paths = %v", paths)
	}
	var total int
	seen := make(map[[3]int32]int)
	for _, p := range paths {
		triples, err := ReadPartition(p, d.NumEntities(), d.NumRelations())
		if err != nil {
			t.Fatal(err)
		}
		total += len(triples)
		for _, tr := range triples {
			seen[tr]++
		}
	}
	if total != len(d.Triples) {
		t.Fatalf("partition total = %d, want %d", total, len(d.Triples))
	}
	for _, tr := range d.Triples {
		if seen[tr] != 1 {
			t.Fatalf("triple %v appears %d times across partitions", tr, seen[tr])
		}
	}
}

func TestWritePartitionsErrors(t *testing.T) {
	d := NewDataset(nil)
	if _, err := WritePartitions(d, t.TempDir(), 0, 1); err == nil {
		t.Fatal("nParts=0 accepted")
	}
	if _, err := ReadPartition("/nonexistent/path.bin", 1, 1); err == nil {
		t.Fatal("missing partition accepted")
	}
}

func TestTrainFromDiskParity(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	train, test, err := d.Split(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := WritePartitions(train, dir, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Model: DistMult, Dim: 24, Epochs: 30, LearningRate: 0.08, Negatives: 4, Workers: 2, Seed: 7}
	diskModel, stats, err := TrainFromDisk(train, paths, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BucketsStreamed != 4*cfg.Epochs {
		t.Fatalf("buckets streamed = %d, want %d", stats.BucketsStreamed, 4*cfg.Epochs)
	}
	if stats.MaxResidentTriples >= len(train.Triples) {
		t.Fatalf("disk training held %d triples resident (full set is %d)", stats.MaxResidentTriples, len(train.Triples))
	}
	diskRes := Evaluate(diskModel, d, test.Triples)
	memModel, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memRes := Evaluate(memModel, d, test.Triples)
	if diskRes.MRR < memRes.MRR*0.6 {
		t.Fatalf("disk MRR %v far below in-memory %v", diskRes.MRR, memRes.MRR)
	}
}

func TestRankTails(t *testing.T) {
	m, _ := NewModel(DistMult, 6, 2, 8, 1)
	cands := []int32{0, 1, 2, 3, 4, 5}
	ranked := RankTails(m, 0, 0, cands)
	if len(ranked) != 6 {
		t.Fatalf("ranked = %v", ranked)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatal("RankTails not sorted")
		}
	}
	if got := RankTails(m, 0, 0, nil); len(got) != 0 {
		t.Fatal("empty candidates")
	}
}

func TestCalibrateThresholdSeparable(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	train, test, err := d.Split(0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(train, TrainConfig{Model: DistMult, Dim: 24, Epochs: 30, LearningRate: 0.08, Negatives: 4, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Build negatives by corrupting test tails.
	var neg [][3]int32
	for i, tr := range test.Triples {
		cand := int32((int(tr[2]) + i + 1) % d.NumEntities())
		if !d.Known(tr[0], tr[1], cand) {
			neg = append(neg, [3]int32{tr[0], tr[1], cand})
		}
	}
	thr := CalibrateThreshold(m, test.Triples, neg)
	var correct, total int
	for _, tr := range test.Triples {
		total++
		if VerifyThreshold(m, tr[0], tr[1], tr[2], thr) {
			correct++
		}
	}
	for _, tr := range neg {
		total++
		if !VerifyThreshold(m, tr[0], tr[1], tr[2], thr) {
			correct++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.65 {
		t.Fatalf("verification accuracy = %v, want > 0.65", acc)
	}
}

func TestCalibrateThresholdEmpty(t *testing.T) {
	m, _ := NewModel(DistMult, 3, 1, 4, 1)
	if thr := CalibrateThreshold(m, nil, nil); thr != 0 {
		t.Fatalf("empty calibration = %v", thr)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m, _ := NewModel(DistMult, 3, 1, 4, 1)
	d := NewDataset(nil)
	res := Evaluate(m, d, nil)
	if res.N != 0 || res.MRR != 0 {
		t.Fatalf("empty eval = %+v", res)
	}
}

func TestWalkEmbeddingsClusterStructure(t *testing.T) {
	w := testWorld(t)
	eng := graphengine.New(w.Graph)
	vecs := TrainWalkEmbeddings(eng, w.People, WalkEmbedConfig{Dim: 48, WalksPerNode: 30, WalkLength: 3, Seed: 13})
	if len(vecs) != len(w.People) {
		t.Fatalf("vectors = %d", len(vecs))
	}
	// Same-cluster people should on average be more similar than
	// cross-cluster people.
	var same, cross float64
	var nSame, nCross int
	for i, a := range w.People {
		for j := i + 1; j < len(w.People) && j < i+20; j++ {
			b := w.People[j]
			var dot float64
			va, vb := vecs[a], vecs[b]
			for k := range va {
				dot += float64(va[k]) * float64(vb[k])
			}
			if w.Cluster[a] == w.Cluster[b] {
				same += dot
				nSame++
			} else {
				cross += dot
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Fatal("degenerate pair sampling")
	}
	same /= float64(nSame)
	cross /= float64(nCross)
	if same <= cross {
		t.Fatalf("walk embeddings do not separate clusters: same=%v cross=%v", same, cross)
	}
}

func TestWalkEmbeddingsDeterministic(t *testing.T) {
	w := testWorld(t)
	eng := graphengine.New(w.Graph)
	cfg := WalkEmbedConfig{Dim: 16, WalksPerNode: 5, WalkLength: 3, Seed: 21}
	v1 := TrainWalkEmbeddings(eng, w.People[:10], cfg)
	v2 := TrainWalkEmbeddings(eng, w.People[:10], cfg)
	for _, p := range w.People[:10] {
		a, b := v1[p], v2[p]
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("walk embeddings not deterministic")
			}
		}
	}
}

func TestTrainIntoShapeCheck(t *testing.T) {
	small, _ := NewModel(DistMult, 2, 1, 4, 1)
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	if err := TrainInto(small, d, TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("undersized model accepted")
	}
}
