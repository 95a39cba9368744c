// Command embedtrain runs the embedding training pipeline of Fig 3 end to
// end: generate (or reuse) a KG, materialize a filtered training view,
// train a shallow model, evaluate link prediction, and optionally
// precompute the entity-vector cache into a key-value store directory.
//
// Usage:
//
//	embedtrain [-model distmult|transe|complex] [-dim 32] [-epochs 30]
//	           [-partitions 1] [-workers 1] [-cache DIR] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"saga/internal/embedding"
	"saga/internal/embedserve"
	"saga/internal/graphengine"
	"saga/internal/storage"
	"saga/internal/workload"
)

func main() {
	model := flag.String("model", "distmult", "model kind: transe, distmult, complex")
	dim := flag.Int("dim", 32, "embedding dimensionality")
	epochs := flag.Int("epochs", 30, "training epochs")
	partitions := flag.Int("partitions", 1, "random edge buckets per epoch")
	workers := flag.Int("workers", 1, "Hogwild workers (1 trains deterministically and, on a handful of relations, fastest)")
	people := flag.Int("people", 200, "number of person entities")
	clusters := flag.Int("clusters", 10, "number of communities")
	minFreq := flag.Int("minpredfreq", 2, "drop predicates rarer than this")
	cacheDir := flag.String("cache", "", "directory for the entity-vector KV cache (empty = skip)")
	registryDir := flag.String("registry", "", "model-registry directory to register the trained model in (empty = skip)")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: *people, NumClusters: *clusters, Seed: *seed})
	if err != nil {
		log.Fatalf("generate world: %v", err)
	}
	eng := graphengine.New(w.Graph)
	view := eng.Materialize(graphengine.ViewDef{DropLiteralFacts: true, MinPredicateFreq: *minFreq})
	fmt.Printf("graph: %d entities, %d triples; view: %d triples after filtering\n",
		w.Graph.NumEntities(), w.Graph.NumTriples(), view.Len())

	d := embedding.NewDataset(view.Triples())
	train, test, err := d.Split(0.1, *seed)
	if err != nil {
		log.Fatalf("split: %v", err)
	}
	cfg := embedding.TrainConfig{
		Model: embedding.ModelKind(*model), Dim: *dim, Epochs: *epochs,
		Workers: *workers, Partitions: *partitions, Seed: *seed,
		LearningRate: 0.08, Negatives: 4,
	}
	start := time.Now()
	m, err := embedding.Train(train, cfg)
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	elapsed := time.Since(start)
	edges := len(train.Triples) * *epochs
	fmt.Printf("trained %s in %v (%.0f edges/s)\n", *model, elapsed.Round(time.Millisecond),
		float64(edges)/elapsed.Seconds())

	res := embedding.Evaluate(m, d, test.Triples)
	fmt.Printf("link prediction (filtered): MRR=%.3f Hits@1=%.3f Hits@3=%.3f Hits@10=%.3f (n=%d)\n",
		res.MRR, res.Hits1, res.Hits3, res.Hits10, res.N)

	if *registryDir != "" {
		reg, err := embedding.NewRegistry(*registryDir)
		if err != nil {
			log.Fatalf("open registry: %v", err)
		}
		info, err := reg.Register("general-kg", m, map[string]float64{
			"mrr": res.MRR, "hits10": res.Hits10,
		})
		if err != nil {
			log.Fatalf("register model: %v", err)
		}
		fmt.Printf("registered %s v%d in %s\n", info.Name, info.Version, *registryDir)
	}

	if *cacheDir != "" {
		store, err := storage.Open(*cacheDir, storage.Options{})
		if err != nil {
			log.Fatalf("open cache: %v", err)
		}
		defer store.Close()
		svc, err := embedserve.New(w.Graph, m, d)
		if err != nil {
			log.Fatalf("build service: %v", err)
		}
		n, err := svc.PrecomputeCache(store)
		if err != nil {
			log.Fatalf("precompute cache: %v", err)
		}
		fmt.Printf("cached %d entity vectors in %s\n", n, *cacheDir)
	}
}
