// Package repro_test is the benchmark and experiment harness at the root
// of the repository. It reproduces, for each figure of the paper, a
// quantified experiment (experiments_test.go, TestE1–TestE12) and a
// performance benchmark (bench_test.go, BenchmarkE1–BenchmarkE12).
// Recorded results are the committed BENCH_<date>.json snapshots
// (scripts/bench.sh); ROADMAP.md says which of them gate.
package repro_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"saga/internal/annotate"
	"saga/internal/embedding"
	"saga/internal/embedserve"
	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/webcorpus"
	"saga/internal/websearch"
	"saga/internal/workload"
)

// fixture is the shared experimental setup: one synthetic world, a
// filtered training view, a trained DistMult model + service, walk
// embeddings, annotators in all three modes, and an annotated corpus.
// Building it is expensive, so it is created once per test binary.
type fixture struct {
	w      *workload.World
	engine *graphengine.Engine

	dataset *embedding.Dataset
	train   *embedding.Dataset
	test    *embedding.Dataset
	model   embedding.Model
	svc     *embedserve.Service

	walkSvc *embedserve.Service // same model, walk embeddings installed

	annotators map[annotate.Mode]*annotate.Annotator

	corpus []*webcorpus.Document
	index  *websearch.Index
}

var (
	fixOnce sync.Once
	fixVal  *fixture
	fixErr  error
)

// getFixture builds (once) and returns the shared fixture.
func getFixture(tb testing.TB) *fixture {
	tb.Helper()
	fixOnce.Do(func() { fixVal, fixErr = buildFixture() })
	if fixErr != nil {
		tb.Fatalf("build fixture: %v", fixErr)
	}
	return fixVal
}

func buildFixture() (*fixture, error) {
	w, err := workload.GenerateKG(workload.KGConfig{
		NumPeople: 120, NumClusters: 10, OccupationsPerPerson: 3,
		AmbiguousNamePairs: 8, LiteralNoiseFacts: 2, Seed: 2023,
	})
	if err != nil {
		return nil, err
	}
	f := &fixture{w: w, engine: graphengine.New(w.Graph)}

	f.dataset = embedding.NewDataset(f.engine.Materialize(graphengine.ViewDef{}))
	f.train, f.test, err = f.dataset.Split(0.1, 2023)
	if err != nil {
		return nil, err
	}
	// One worker: Hogwild workers race by design, so with several of them
	// the shared model — and every quality threshold asserted on it —
	// varies run to run on a multi-core box (E1's embedding-beats-random
	// margin flipped in roughly one run in seven). E5 prices worker scaling
	// on its own models.
	f.model, err = embedding.Train(f.train, embedding.TrainConfig{
		Model: embedding.DistMult, Dim: 32, Epochs: 30, LearningRate: 0.08,
		Negatives: 4, Workers: 1, Seed: 2023,
	})
	if err != nil {
		return nil, err
	}
	f.svc, err = embedserve.New(w.Graph, f.model, f.dataset)
	if err != nil {
		return nil, err
	}

	f.walkSvc, err = embedserve.New(w.Graph, f.model, f.dataset)
	if err != nil {
		return nil, err
	}
	walkVecs := embedding.TrainWalkEmbeddings(w.Graph, w.People, embedding.WalkEmbedConfig{
		Dim: 64, WalksPerNode: 25, WalkLength: 3, Seed: 2023,
	})
	if err := f.walkSvc.SetWalkEmbeddings(walkVecs); err != nil {
		return nil, err
	}

	f.annotators = make(map[annotate.Mode]*annotate.Annotator)
	for _, mode := range []annotate.Mode{annotate.ModeLexical, annotate.ModePopularity, annotate.ModeContextual} {
		a, err := annotate.New(w.Graph, annotate.Config{Mode: mode, Seed: 2023})
		if err != nil {
			return nil, err
		}
		f.annotators[mode] = a
	}

	f.corpus = webcorpus.Generate(w, webcorpus.Config{
		NumDocs: 400, InfoboxFraction: 0.5, WrongInfoboxFraction: 0.15, Seed: 2023,
	})
	f.index = websearch.NewIndex(f.corpus)
	return f, nil
}

// row prints an experiment result row in a uniform, grep-able format.
func row(tb testing.TB, exp, label string, kv ...any) {
	tb.Helper()
	s := fmt.Sprintf("[%s] %-32s", exp, label)
	for i := 0; i+1 < len(kv); i += 2 {
		switch v := kv[i+1].(type) {
		case float64:
			s += fmt.Sprintf(" %s=%.4f", kv[i], v)
		default:
			s += fmt.Sprintf(" %s=%v", kv[i], v)
		}
	}
	tb.Log(s)
}

// linkingAccuracy measures mention-linking accuracy of an annotator over
// the fixture corpus: overall and over ambiguous gold mentions only.
func linkingAccuracy(f *fixture, a *annotate.Annotator) (overall, ambiguous float64) {
	var correct, total, ambCorrect, ambTotal int
	for _, d := range f.corpus {
		anns := a.Annotate(d.Text)
		byStart := make(map[int]annotate.Annotation)
		for _, ann := range anns {
			byStart[ann.Start] = ann
		}
		for _, gm := range d.Gold {
			total++
			ann, ok := byStart[gm.Start]
			hit := ok && ann.Entity == gm.Entity
			if hit {
				correct++
			}
			if gm.Ambiguous {
				ambTotal++
				if hit {
					ambCorrect++
				}
			}
		}
	}
	if total > 0 {
		overall = float64(correct) / float64(total)
	}
	if ambTotal > 0 {
		ambiguous = float64(ambCorrect) / float64(ambTotal)
	}
	return overall, ambiguous
}

// goldRank returns the 1-based rank of want in ranked entity IDs (0 if
// absent).
func goldRank(ranked []kg.EntityID, want kg.EntityID) int {
	for i, id := range ranked {
		if id == want {
			return i + 1
		}
	}
	return 0
}

// shuffledPeople returns a deterministic shuffled copy of the fixture's
// people for sampling.
func shuffledPeople(f *fixture, seed int64) []kg.EntityID {
	out := append([]kg.EntityID(nil), f.w.People...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
