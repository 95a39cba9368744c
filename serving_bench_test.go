package repro_test

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"saga/saga"
)

// Witness benchmarks for the three interactive-tail services at the
// end-to-end benchmark's own size (bench/setup.go fullSizes: 20 000
// people, 400 clusters, 2 000 documents, DistMult dim 32, contextual
// annotator), so their allocs/op and B/op are the per-op costs behind
// serve-read-mix's /related, /search and /annotate.

type servingFixture struct {
	world *saga.World
	p     *saga.Platform
	index *saga.SearchIndex
	texts []string // /annotate bodies, cut at 240 bytes as bench/ops.go does
	words []string // distinct title words longer than 3 bytes, sorted
}

var (
	servingOnce sync.Once
	servingVal  *servingFixture
	servingErr  error
)

func getServingFixture(tb testing.TB) *servingFixture {
	tb.Helper()
	servingOnce.Do(func() { servingVal, servingErr = buildServingFixture() })
	if servingErr != nil {
		tb.Fatalf("build serving fixture: %v", servingErr)
	}
	return servingVal
}

func buildServingFixture() (*servingFixture, error) {
	const seed = 1
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 20000, NumClusters: 400, Seed: seed})
	if err != nil {
		return nil, err
	}
	f := &servingFixture{world: w, p: saga.New(w.Graph)}
	if err := f.p.TrainEmbeddings(saga.EmbeddingOptions{
		Train: saga.TrainConfig{Model: saga.DistMult, Dim: 32, Epochs: 5, Seed: seed, Workers: 1},
	}); err != nil {
		return nil, err
	}
	if err := f.p.BuildAnnotator(saga.AnnotateConfig{Mode: saga.ModeContextual, Seed: seed}); err != nil {
		return nil, err
	}
	corpus := saga.GenerateCorpus(w, saga.CorpusConfig{NumDocs: 2000, Seed: seed})
	f.index = saga.NewSearchIndex(corpus)
	seen := make(map[string]bool)
	for _, d := range corpus {
		text := d.Text
		if len(text) > 240 {
			text = text[:strings.LastIndexByte(text[:240], ' ')]
		}
		if len(d.Gold) > 0 {
			f.texts = append(f.texts, text)
		}
		for _, tok := range strings.Fields(d.Title) {
			if len(tok) > 3 && !seen[tok] {
				seen[tok] = true
				f.words = append(f.words, tok)
			}
		}
	}
	sort.Strings(f.words)
	return f, nil
}

// relatedMissNext carries BenchmarkRelatedMiss's position in the key
// cycle across its calibration rounds and -count repetitions.
var relatedMissNext int

// BenchmarkRelatedMiss prices a /related result-cache miss: one exact
// kNN scan of every entity vector. Keys cycle through all 20 000 people;
// the result cache holds 16 384 entries and is dropped wholesale when
// full, so no key is ever resident when its turn comes round again.
func BenchmarkRelatedMiss(b *testing.B) {
	f := getServingFixture(b)
	people := f.world.People
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := people[relatedMissNext%len(people)]
		relatedMissNext++
		if _, err := f.p.RelatedEntities(id, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTwoTerms is the /search op of the serving mix: two of
// the corpus's title words, top 10.
func BenchmarkSearchTwoTerms(b *testing.B) {
	f := getServingFixture(b)
	queries := make([]string, 0, len(f.words))
	for i, w := range f.words {
		queries = append(queries, w+" "+f.words[(i*7+3)%len(f.words)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := f.index.Search(queries[i%len(queries)], 10); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkAnnotateDocBenchSize is the /annotate op of the serving mix:
// one ≤ 240-byte paragraph through the contextual annotator.
func BenchmarkAnnotateDocBenchSize(b *testing.B) {
	f := getServingFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.p.Annotate(f.texts[i%len(f.texts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEmbeddingsBenchSize is the end-to-end benchmark's training
// stage (bench/setup.go: DistMult dim 32, 5 epochs, one worker) through
// Platform.TrainEmbeddings on the bench-size world: graph scan, dataset,
// SGD, vector index. B/op and allocs/op are the set-up's garbage; ns/step
// divides the whole call by its logistic steps (epochs × triples ×
// negatives × 2), so it also carries the prep.
func BenchmarkTrainEmbeddingsBenchSize(b *testing.B) {
	f := getServingFixture(b)
	cfg := saga.TrainConfig{Model: saga.DistMult, Dim: 32, Epochs: 5, Seed: 1, Workers: 1}
	const negatives = 2 // TrainConfig's default
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := saga.New(f.world.Graph)
		if err := p.TrainEmbeddings(saga.EmbeddingOptions{Train: cfg}); err != nil {
			b.Fatal(err)
		}
		steps += cfg.Epochs * len(p.Dataset().Triples) * negatives * 2
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(steps/b.N), "steps/op")
}
