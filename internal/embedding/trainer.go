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
	// Workers is the Hogwild parallelism: how many updaters apply steps
	// concurrently, each with its own sampler goroutine drawing them
	// (trainBucket); default 1. One worker is deterministic for a seed
	// and already keeps two cores busy, its sampler's and its updater's;
	// on a graph with a handful of relations it is also the fastest, as
	// every step writes a relation row and more updaters mostly contend
	// for the same cache lines (E5).
	Workers int
	// Seed makes initialization and sampling reproducible (per bucket and
	// worker the seed is derived deterministically).
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
	parts := partitionIndexes(len(d.Triples), cfg.Partitions, rng)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var next [][]int32
		for bi, part := range parts {
			var ahead func()
			if bi == len(parts)-1 && epoch+1 < cfg.Epochs {
				// The next epoch's shuffle, drawn by a sampler once its
				// last block is handed over, while its updater works on.
				ahead = func() { next = partitionIndexes(len(d.Triples), cfg.Partitions, rng) }
			}
			trainBucket(model, d, part, cfg, bucketSeed(cfg.Seed, epoch, bi), ahead)
		}
		parts = next
	}
	return nil
}

// bucketSeed seeds bucket bi of an epoch, so that no two buckets of a run
// replay one random stream; bucket 0's seed is the epoch's.
func bucketSeed(seed int64, epoch, bi int) int64 {
	return seed + int64(epoch)*7919 + int64(bi)*31
}

// A step is one Update of the stream: the positive (h, r, t) and the
// negative (nh, r, nt) drawn for it.
type step struct{ h, r, t, nh, nt int32 }

const (
	// blockSteps caps a block handed from sampler to updater: 40 KB.
	blockSteps = 2048
	// ringBlocks is how many blocks each sampler may fill ahead.
	ringBlocks = 4
	// touchAhead is how many steps ahead the updater reads the entity
	// rows it is about to update, so their cache misses overlap the
	// steps in between.
	touchAhead = 3
)

// trainBucket runs one pass over the triple indexes in part using
// cfg.Workers Hogwild updaters, each fed by its own sampler goroutine.
// Worker w owns the w-th chunk of part and an RNG seeded seed+w·104729;
// its sampler draws, in chunk order, cfg.Negatives corruptions per triple
// and hands them over in blocks through a ring of ringBlocks reused
// buffers (none of it reads a parameter), and its updater applies them
// in that order — so one worker's stream, and with it the trained bytes,
// is what one goroutine drawing and updating inline produced, while the
// draws and the known-triple probes run on another core. Worker 0's
// updater is the calling goroutine; ahead, if not nil, runs on worker
// 0's sampler after its last draw. trainBucket returns, or re-panics,
// only once every goroutine it started has exited.
//
// Parameter updates are intentionally unsynchronized: gradients of
// shallow models are sparse, so collisions are rare and Hogwild
// converges (this is how the large-scale systems the paper cites — PBG,
// DGL-KE, Marius — parallelize shallow models too). To the race detector
// those colliding updates are nevertheless real data races, so
// race-instrumented builds run one updater — `go test -race ./...` then
// checks every lock-based invariant in the repo, the sampler's hand-over
// among them, without drowning in reports from the one algorithm whose
// race is by design.
func trainBucket(model Model, d *Dataset, part []int32, cfg TrainConfig, seed int64, ahead func()) {
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
	chunk := (len(part) + workers - 1) / workers
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 1; w < workers && w*chunk < len(part); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(model, d, part[w*chunk:min((w+1)*chunk, len(part))], cfg, seed+int64(w)*104729, nil)
		}(w)
	}
	runWorker(model, d, part[:min(chunk, len(part))], cfg, seed, ahead)
}

// runWorker trains one worker's chunk: a sampler goroutine draws the
// steps, the calling goroutine applies them.
func runWorker(model Model, d *Dataset, chunk []int32, cfg TrainConfig, seed int64, ahead func()) {
	s := newSampler(len(chunk) * cfg.Negatives)
	go s.run(d, chunk, cfg.Negatives, seed, ahead)
	defer s.stop()
	// The model kinds' rows can be touched ahead (base.touch); others not.
	b, _ := model.(interface{ touch(step) float32 })
	var touched float32
	for blk := range s.full {
		for i, st := range blk {
			if b != nil && i+touchAhead < len(blk) {
				touched += b.touch(blk[i+touchAhead])
			}
			model.Update(st.h, st.r, st.t, st.nh, st.nt, cfg.LearningRate)
		}
		s.free <- blk[:0]
	}
	s.touched = touched
	if s.panicked != nil {
		panic(s.panicked)
	}
}

// A sampler draws one worker's step stream ahead of its updater. Blocks
// travel free → sampler → full → updater → free; with ringBlocks
// buffers in all, a send on either channel never blocks, and only the
// sampler waits (for a free block, or for quit).
type sampler struct {
	full, free chan []step
	quit       chan struct{} // closed by stop: the updater is gone
	exited     chan struct{} // closed by run as it returns
	// panicked is run's recovered panic, written before full is closed.
	panicked any
	// touched keeps the updater's row reads alive.
	touched float32
}

// newSampler sizes the ring for a stream of steps steps: blocks of
// blockSteps, smaller for a short stream so that it is still pipelined.
func newSampler(steps int) *sampler {
	s := &sampler{
		full:   make(chan []step, ringBlocks),
		free:   make(chan []step, ringBlocks),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	size := min(blockSteps, max(1, (steps+ringBlocks-1)/ringBlocks))
	for i := 0; i < ringBlocks; i++ {
		s.free <- make([]step, 0, size)
	}
	return s
}

// run draws the chunk's steps on an RNG seeded seed, in the order the
// updater applies them, then runs ahead.
func (s *sampler) run(d *Dataset, chunk []int32, negatives int, seed int64, ahead func()) {
	defer close(s.exited)
	defer close(s.full)
	defer func() { s.panicked = recover() }()
	blk := s.next()
	if blk == nil {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	nEnt := int32(d.NumEntities())
	for _, ti := range chunk {
		tr := d.Triples[ti]
		for n := 0; n < negatives; n++ {
			nh, nt := corrupt(tr, nEnt, d, rng)
			blk = append(blk, step{tr[0], tr[1], tr[2], nh, nt})
			if len(blk) == cap(blk) {
				s.full <- blk
				if blk = s.next(); blk == nil {
					return
				}
			}
		}
	}
	if len(blk) > 0 {
		s.full <- blk
	}
	if ahead != nil {
		ahead()
	}
}

// next returns a free block, or nil once the updater has stopped.
func (s *sampler) next() []step {
	select {
	case blk := <-s.free:
		return blk
	case <-s.quit:
		return nil
	}
}

// stop releases the sampler, on every exit of the updater, and waits for
// it to return.
func (s *sampler) stop() {
	close(s.quit)
	<-s.exited
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
