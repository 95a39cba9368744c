package embedding

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// TrainConfig configures Train.
type TrainConfig struct {
	// Model selects the model family; default DistMult.
	Model ModelKind
	// Dim is the embedding dimensionality; default 32.
	Dim int
	// Epochs over the training triples; default 10.
	Epochs int
	// LearningRate for SGD; default 0.05.
	LearningRate float64
	// Negatives per positive triple; default 2.
	Negatives int
	// Workers is the Hogwild parallelism; default 1. One worker is
	// deterministic for a seed, and on a graph with a handful of relations
	// it is also the fastest: every step writes a relation row, so more
	// workers mostly contend for the same cache lines (E5).
	Workers int
	// Seed makes initialization and sampling reproducible (per worker the
	// seed is derived deterministically).
	Seed int64
	// Partitions splits each epoch's triples into random edge-based
	// buckets trained one bucket at a time — the shallow-model scaling
	// technique of §2 ("random edge-based partitioning of the graph is a
	// major technique to combat the scalability challenge"). Default 1.
	Partitions int
}

func (c *TrainConfig) setDefaults() {
	if c.Model == "" {
		c.Model = DistMult
	}
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.Negatives <= 0 {
		c.Negatives = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
}

// Train fits a model to the dataset's triples.
func Train(d *Dataset, cfg TrainConfig) (Model, error) {
	cfg.setDefaults()
	if len(d.Triples) == 0 {
		return nil, errors.New("embedding: empty training set")
	}
	model, err := NewModel(cfg.Model, d.NumEntities(), d.NumRelations(), cfg.Dim, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := TrainInto(model, d, cfg); err != nil {
		return nil, err
	}
	return model, nil
}

// TrainInto runs the training loop on an existing model (used by the
// disk-partitioned path to continue across buckets).
func TrainInto(model Model, d *Dataset, cfg TrainConfig) error {
	cfg.setDefaults()
	if model.NumEntities() < d.NumEntities() || model.NumRelations() < d.NumRelations() {
		return fmt.Errorf("embedding: model shape (%d ents, %d rels) smaller than dataset (%d, %d)",
			model.NumEntities(), model.NumRelations(), d.NumEntities(), d.NumRelations())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		parts := partitionIndexes(len(d.Triples), cfg.Partitions, rng)
		for _, part := range parts {
			trainBucket(model, d, part, cfg, cfg.Seed+int64(epoch)*7919)
		}
	}
	return nil
}

// trainBucket runs one pass over the triple indexes in part using
// cfg.Workers Hogwild goroutines. Parameter updates are intentionally
// unsynchronized: gradients of shallow models are sparse, so collisions
// are rare and Hogwild converges (this is how the large-scale systems the
// paper cites — PBG, DGL-KE, Marius — parallelize shallow models too).
// To the race detector those colliding updates are nevertheless real data
// races, so race-instrumented builds serialize the workers — `go test
// -race ./...` then checks every lock-based invariant in the repo without
// drowning in reports from the one algorithm whose race is by design.
func trainBucket(model Model, d *Dataset, part []int32, cfg TrainConfig, seed int64) {
	workers := cfg.Workers
	if raceDetectorEnabled {
		workers = 1
	}
	if workers > len(part) {
		workers = len(part)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (len(part) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(part) {
			hi = len(part)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*104729))
			nEnt := int32(d.NumEntities())
			for _, ti := range part[lo:hi] {
				tr := d.Triples[ti]
				for n := 0; n < cfg.Negatives; n++ {
					nh, nt := corrupt(tr, nEnt, d, rng)
					model.Update(tr[0], tr[1], tr[2], nh, nt, cfg.LearningRate)
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// corrupt produces a negative by replacing head or tail with a uniformly
// random entity, resampling (up to a bound) when the corruption collides
// with a known true triple.
func corrupt(tr [3]int32, nEnt int32, d *Dataset, rng *rand.Rand) (nh, nt int32) {
	nh, nt = tr[0], tr[2]
	for attempt := 0; attempt < 8; attempt++ {
		cand := rng.Int31n(nEnt)
		if rng.Intn(2) == 0 {
			if !d.Known(cand, tr[1], tr[2]) {
				return cand, tr[2]
			}
		} else {
			if !d.Known(tr[0], tr[1], cand) {
				return tr[0], cand
			}
		}
	}
	// Fall back to possibly-false negative; harmless at low rates.
	return tr[0], rng.Int31n(nEnt)
}

// partitionIndexes shuffles [0,n) and splits it into parts buckets. This
// is the "random edge-based partitioning" of §2: each epoch re-randomizes
// bucket membership so no edge is permanently separated from any other.
func partitionIndexes(n, parts int, rng *rand.Rand) [][]int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if parts <= 1 {
		return [][]int32{idx}
	}
	if parts > n {
		parts = n
	}
	out := make([][]int32, 0, parts)
	chunk := (n + parts - 1) / parts
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, idx[lo:hi])
	}
	return out
}
