package repro_test

import (
	"testing"

	"saga/internal/embedding"
	"saga/internal/kg"
	"saga/internal/metrics"
	"saga/internal/vecindex"
)

// ---------------------------------------------------------------- E13
// §3.2 / §5 model compression: int8-quantized entity vectors must retain
// related-entity quality at ~4x less memory ("compressing learned models
// (e.g., by floating point precision reduction)").
func TestE13CompressionAblation(t *testing.T) {
	f := getFixture(t)
	flat := vecindex.NewFlat()
	quant := vecindex.NewQuantized()
	n := f.dataset.NumEntities()
	for i := 0; i < n; i++ {
		v := vecindex.Normalize(f.model.EntityVector(int32(i)))
		id := uint64(f.dataset.Ents[i])
		if err := flat.Add(id, v); err != nil {
			t.Fatal(err)
		}
		if err := quant.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	// Recall of quantized vs exact top-10.
	var hit, total int
	for q := 0; q < 60; q++ {
		idx := int32((q * 13) % n)
		query := vecindex.Normalize(f.model.EntityVector(idx))
		want := flat.Search(query, 10)
		got := quant.Search(query, 10)
		gotSet := make(map[uint64]bool, len(got))
		for _, r := range got {
			gotSet[r.ID] = true
		}
		for _, r := range want {
			total++
			if gotSet[r.ID] {
				hit++
			}
		}
	}
	recall := float64(hit) / float64(total)
	floatBytes := n * flat.Dim() * 4
	ratio := float64(floatBytes) / float64(quant.MemoryBytes())
	row(t, "E13", "int8 compression", "recall@10", recall, "memFloatBytes", floatBytes,
		"memInt8Bytes", quant.MemoryBytes(), "compressionRatio", ratio)
	if recall < 0.9 {
		t.Errorf("quantized recall = %.3f, compression destroys quality", recall)
	}
	if ratio < 3 {
		t.Errorf("compression ratio = %.2f, want ~4x", ratio)
	}

	// Downstream check: related-entity cluster precision with quantized
	// vectors stays close to full precision.
	precision := func(ix interface {
		Search(vecindex.Vector, int) []vecindex.Result
	}) float64 {
		var ps []float64
		for _, src := range f.w.People[:30] {
			sIdx, ok := f.dataset.EntityIndex(src)
			if !ok {
				continue
			}
			query := vecindex.Normalize(f.model.EntityVector(sIdx))
			res := ix.Search(query, 25)
			var hits, cnt int
			for _, r := range res {
				id := kg.EntityID(r.ID)
				if id == src {
					continue
				}
				if _, isPerson := f.w.Cluster[id]; !isPerson {
					continue
				}
				cnt++
				if cnt > 10 {
					break
				}
				if f.w.Cluster[id] == f.w.Cluster[src] {
					hits++
				}
			}
			if cnt > 0 {
				ps = append(ps, float64(hits)/float64(min(cnt, 10)))
			}
		}
		return metrics.Mean(ps)
	}
	full := precision(flat)
	compressed := precision(quant)
	row(t, "E13", "related-entities P@10", "float32", full, "int8", compressed)
	if compressed < full-0.1 {
		t.Errorf("quantized related precision %.3f far below full %.3f", compressed, full)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------- E14
// §2 reasoning-based path: multi-hop queries answered by relation
// composition in embedding space, against traversal ground truth.
func TestE14MultiHopReasoning(t *testing.T) {
	f := getFixture(t)
	collab, ok := f.dataset.RelationIndex(f.w.Preds["collaborator"])
	if !ok {
		t.Fatal("collaborator relation missing")
	}
	member, ok := f.dataset.RelationIndex(f.w.Preds["memberOf"])
	if !ok {
		t.Fatal("memberOf relation missing")
	}
	var teamIdx []int32
	for _, team := range f.w.Teams {
		if ti, ok := f.dataset.EntityIndex(team); ok {
			teamIdx = append(teamIdx, ti)
		}
	}
	var hits, total int
	for _, p := range f.w.People {
		pIdx, ok := f.dataset.EntityIndex(p)
		if !ok {
			continue
		}
		q := embedding.PathQuery{Start: pIdx, Relations: []int32{collab, member}}
		gt := embedding.PathGroundTruth(f.dataset, q)
		if len(gt) == 0 {
			continue
		}
		ranked, err := embedding.AnswerPathQuery(f.model, q, teamIdx)
		if err != nil {
			t.Fatal(err)
		}
		total++
		for _, st := range ranked[:min(3, len(ranked))] {
			if gt[st.Tail] {
				hits++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no evaluable 2-hop queries")
	}
	rate := float64(hits) / float64(total)
	// Random top-3 over the team candidates.
	random := 3.0 / float64(len(teamIdx))
	row(t, "E14", "2-hop path queries", "hits@3", rate, "n", total, "randomBaseline", random)
	if rate < random+0.2 {
		t.Errorf("composition Hits@3 %.3f barely above random %.3f", rate, random)
	}
}

// ------------------------------------------------------------ ablations
// Design-choice ablations: negative-sample count and embedding
// dimensionality, at a fixed epoch budget.
func TestAblationNegativesAndDim(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep skipped in -short")
	}
	f := getFixture(t)
	for _, negs := range []int{1, 4, 8} {
		m, err := embedding.Train(f.train, embedding.TrainConfig{
			Model: embedding.DistMult, Dim: 32, Epochs: 20, LearningRate: 0.08,
			Negatives: negs, Workers: 4, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := embedding.Evaluate(m, f.dataset, f.test.Triples)
		row(t, "ABL", "negative-sample ablation", "negatives", negs, "MRR", res.MRR, "Hits@10", res.Hits10)
	}
	for _, dim := range []int{8, 32, 64} {
		m, err := embedding.Train(f.train, embedding.TrainConfig{
			Model: embedding.DistMult, Dim: dim, Epochs: 20, LearningRate: 0.08,
			Negatives: 4, Workers: 4, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := embedding.Evaluate(m, f.dataset, f.test.Triples)
		row(t, "ABL", "dimension ablation", "dim", dim, "MRR", res.MRR, "Hits@10", res.Hits10)
	}
}

// BenchmarkE13Quantized compares float32 vs int8 kNN latency.
func BenchmarkE13Quantized(b *testing.B) {
	f := getFixture(b)
	flat := vecindex.NewFlat()
	quant := vecindex.NewQuantized()
	n := f.dataset.NumEntities()
	for i := 0; i < n; i++ {
		v := vecindex.Normalize(f.model.EntityVector(int32(i)))
		id := uint64(f.dataset.Ents[i])
		if err := flat.Add(id, v); err != nil {
			b.Fatal(err)
		}
		if err := quant.Add(id, v); err != nil {
			b.Fatal(err)
		}
	}
	query := vecindex.Normalize(f.model.EntityVector(0))
	b.Run("float32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = flat.Search(query, 10)
		}
	})
	b.Run("int8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = quant.Search(query, 10)
		}
	})
}

// BenchmarkE14PathQuery measures 2-hop composed query latency vs the
// traversal baseline.
func BenchmarkE14PathQuery(b *testing.B) {
	f := getFixture(b)
	collab, _ := f.dataset.RelationIndex(f.w.Preds["collaborator"])
	member, _ := f.dataset.RelationIndex(f.w.Preds["memberOf"])
	var teamIdx []int32
	for _, team := range f.w.Teams {
		if ti, ok := f.dataset.EntityIndex(team); ok {
			teamIdx = append(teamIdx, ti)
		}
	}
	pIdx, _ := f.dataset.EntityIndex(f.w.People[0])
	q := embedding.PathQuery{Start: pIdx, Relations: []int32{collab, member}}
	b.Run("embedding-composition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := embedding.AnswerPathQuery(f.model, q, teamIdx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("graph-traversal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = embedding.PathGroundTruth(f.dataset, q)
		}
	})
}
