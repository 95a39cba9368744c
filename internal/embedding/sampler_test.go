package embedding

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"saga/internal/kg"
)

// referenceBucket is the trainer's draw loop as it ran inline on each
// updating goroutine before the sampler took it over: worker w draws its
// chunk of part on an RNG seeded seed+w·104729, cfg.Negatives
// corruptions per triple in chunk order. It returns each worker's steps.
func referenceBucket(d *Dataset, part []int32, cfg TrainConfig, seed int64) [][]step {
	workers := cfg.Workers
	if raceDetectorEnabled {
		workers = 1
	}
	workers = max(1, min(workers, len(part)))
	chunk := (len(part) + workers - 1) / workers
	var out [][]step
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(part))
		if lo >= hi {
			break
		}
		rng := rand.New(rand.NewSource(seed + int64(w)*104729))
		nEnt := int32(d.NumEntities())
		var steps []step
		for _, ti := range part[lo:hi] {
			tr := d.Triples[ti]
			for n := 0; n < cfg.Negatives; n++ {
				nh, nt := corrupt(tr, nEnt, d, rng)
				steps = append(steps, step{tr[0], tr[1], tr[2], nh, nt})
			}
		}
		out = append(out, steps)
	}
	return out
}

// referenceRun is TrainInto's schedule drawn inline: each epoch's shuffle
// on the run's RNG, then every bucket seeded by (epoch, bucket index).
func referenceRun(d *Dataset, cfg TrainConfig) [][][]step {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out [][][]step
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for bi, part := range partitionIndexes(len(d.Triples), cfg.Partitions, rng) {
			out = append(out, referenceBucket(d, part, cfg, cfg.Seed+int64(epoch)*7919+int64(bi)*31))
		}
	}
	return out
}

// referenceDiskRun is TrainFromDisk's schedule drawn inline.
func referenceDiskRun(t *testing.T, d *Dataset, paths []string, cfg TrainConfig) [][][]step {
	t.Helper()
	cfg.setDefaults()
	var out [][][]step
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for pi, path := range paths {
			triples, err := ReadPartition(path, d.NumEntities(), d.NumRelations())
			if err != nil {
				t.Fatal(err)
			}
			if len(triples) == 0 {
				continue
			}
			part := make([]int32, len(triples))
			for i := range part {
				part[i] = int32(i)
			}
			out = append(out, referenceBucket(d.sharing(triples), part, cfg, cfg.Seed+int64(epoch)*7919+int64(pi)*31))
		}
	}
	return out
}

// recorder is a Model that records the steps it is given and, if it
// wraps a model, applies them to it; the trainer calls nothing else of it
// but its shape.
type recorder struct {
	Model
	nEnt, nRel int
	mu         sync.Mutex
	steps      []step
}

func (m *recorder) NumEntities() int  { return m.nEnt }
func (m *recorder) NumRelations() int { return m.nRel }
func (m *recorder) Update(h, r, t, nh, nt int32, lr float64) {
	m.mu.Lock()
	m.steps = append(m.steps, step{h, r, t, nh, nt})
	m.mu.Unlock()
	if m.Model != nil {
		m.Model.Update(h, r, t, nh, nt, lr)
	}
}

// checkStream reports where got, the steps the model was given, departs
// from want: bucket after bucket, each an interleaving of its workers'
// streams (one worker: the stream itself). Within a bucket no two
// workers share a triple, so a step's worker is the one whose next step
// it is.
func checkStream(got []step, want [][][]step) error {
	at := 0
	for b, workers := range want {
		next := make([]int, len(workers))
		n := 0
		for _, ws := range workers {
			n += len(ws)
		}
	steps:
		for i := 0; i < n; i++ {
			if at >= len(got) {
				return fmt.Errorf("stream ends at step %d, in bucket %d", at, b)
			}
			for w, ws := range workers {
				if next[w] < len(ws) && ws[next[w]] == got[at] {
					next[w]++
					at++
					continue steps
				}
			}
			return fmt.Errorf("bucket %d: step %d is %+v, next of no worker", b, at, got[at])
		}
	}
	if at != len(got) {
		return fmt.Errorf("%d steps past the reference's %d", len(got)-at, at)
	}
	return nil
}

// randomDataset is a random graph of up to maxEnt entities and
// minFacts to maxFacts facts.
func randomDataset(rng *rand.Rand, maxEnt, minFacts, maxFacts int) *Dataset {
	nEnt, nRel := 2+rng.Intn(maxEnt-1), 1+rng.Intn(5)
	facts := make([]Fact, minFacts+rng.Intn(maxFacts-minFacts+1))
	for i := range facts {
		facts[i] = Fact{Subject: kg.EntityID(1 + rng.Intn(nEnt)), Predicate: kg.PredicateID(1 + rng.Intn(nRel)), Object: kg.EntityID(1 + rng.Intn(nEnt))}
	}
	return NewDatasetFromFacts(facts)
}

// TestSamplerStreamMatchesInlineDraws: the steps Update receives are the
// inline draw loop's, for TrainInto and TrainFromDisk, at one worker in
// order and at several as per-worker orders interleaved bucket by
// bucket. The larger datasets fill the ring's 2 048-step blocks many
// times over, and their updates train a model: the updater is then the
// slower side, so the sampler waits on a full ring and refills each
// block as soon as it is given back.
func TestSamplerStreamMatchesInlineDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 24; trial++ {
		d := randomDataset(rng, 40, 1, 300)
		if trial%4 == 0 {
			d = randomDataset(rng, 3000, 9000, 12000)
		}
		cfg := TrainConfig{
			Epochs:     1 + rng.Intn(3),
			Negatives:  []int{1, 2, 5}[trial%3],
			Partitions: []int{1, 3}[trial/3%2],
			Workers:    []int{1, 1, 3}[trial%3],
			Seed:       rng.Int63n(1 << 40),
		}
		name := fmt.Sprintf("trial %d (%d triples, %+v)", trial, len(d.Triples), cfg)

		newRecorder := func() *recorder {
			rec := &recorder{nEnt: d.NumEntities(), nRel: d.NumRelations()}
			if trial%4 == 0 {
				rec.Model, _ = NewModel(DistMult, rec.nEnt, rec.nRel, 128, 1)
			}
			return rec
		}
		rec := newRecorder()
		if err := TrainInto(rec, d, cfg); err != nil {
			t.Fatal(err)
		}
		if err := checkStream(rec.steps, referenceRun(d, cfg)); err != nil {
			t.Fatalf("%s, TrainInto: %v", name, err)
		}

		paths, err := WritePartitions(d, filepath.Join(t.TempDir(), "parts"), 3, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rec = newRecorder()
		diskCfg := cfg
		diskCfg.setDefaults()
		if _, err := trainFromDisk(rec, d, paths, diskCfg); err != nil {
			t.Fatal(err)
		}
		if err := checkStream(rec.steps, referenceDiskRun(t, d, paths, cfg)); err != nil {
			t.Fatalf("%s, TrainFromDisk: %v", name, err)
		}
	}
}

// TestSamplerTrainsReferenceBytes: at one worker every model kind trains
// to the parameter bytes of the inline reference trainer, through Train
// and TrainFromDisk.
func TestSamplerTrainsReferenceBytes(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	paths, err := WritePartitions(d, filepath.Join(t.TempDir(), "parts"), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ModelKind{DistMult, TransE, ComplEx} {
		for _, parts := range []int{1, 3} {
			cfg := TrainConfig{Model: kind, Dim: 12, Epochs: 3, LearningRate: 0.05, Negatives: 2, Workers: 1, Seed: 5, Partitions: parts}
			reference := func(run [][][]step) uint64 {
				m, err := NewModel(kind, d.NumEntities(), d.NumRelations(), cfg.Dim, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, bucket := range run {
					for _, st := range bucket[0] {
						m.Update(st.h, st.r, st.t, st.nh, st.nt, cfg.LearningRate)
					}
				}
				return paramHash(t, m)
			}
			got, err := Train(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g, want := paramHash(t, got), reference(referenceRun(d, cfg)); g != want {
				t.Fatalf("%s, %d partitions: Train = %016x, inline reference = %016x", kind, parts, g, want)
			}
			disk, _, err := TrainFromDisk(d, paths, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g, want := paramHash(t, disk), reference(referenceDiskRun(t, d, paths, cfg)); g != want {
				t.Fatalf("%s: TrainFromDisk = %016x, inline reference = %016x", kind, g, want)
			}
		}
	}
}

// matchingDataset is n disjoint edges: a corruption is almost never a
// known triple.
func matchingDataset(n int) *Dataset {
	facts := make([]Fact, n)
	for i := range facts {
		facts[i] = Fact{Subject: kg.EntityID(1 + i), Predicate: 1, Object: kg.EntityID(1 + n + i)}
	}
	return NewDatasetFromFacts(facts)
}

// TestBucketsDrawDifferentNegatives: the buckets of one epoch are seeded
// apart, so they do not corrupt their k-th triples with one replayed
// sequence of entities.
func TestBucketsDrawDifferentNegatives(t *testing.T) {
	d := matchingDataset(1000)
	cfg := TrainConfig{Epochs: 1, Negatives: 1, Workers: 1, Partitions: 2, Seed: 3}
	rec := &recorder{nEnt: d.NumEntities(), nRel: d.NumRelations()}
	if err := TrainInto(rec, d, cfg); err != nil {
		t.Fatal(err)
	}
	// corrupted is the end a negative replaced and the entity it drew.
	corrupted := func(st step) [2]int32 {
		if st.nh != st.h {
			return [2]int32{0, st.nh}
		}
		return [2]int32{1, st.nt}
	}
	half := len(rec.steps) / 2
	same := 0
	for k := 0; k < 64; k++ {
		if corrupted(rec.steps[k]) == corrupted(rec.steps[half+k]) {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("%d of the two buckets' first 64 negatives are one draw", same)
	}
}

// waitGoroutines fails unless the goroutine count falls back to want.
func waitGoroutines(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after %s: %d goroutines, %d before\n%s", after, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// panicking is a model whose Update panics at its after-th call.
type panicking struct {
	Model
	after int
}

func (m *panicking) Update(h, r, t, nh, nt int32, lr float64) {
	if m.after--; m.after == 0 {
		panic("update failed")
	}
	m.Model.Update(h, r, t, nh, nt, lr)
}

// TestTrainLeavesNoGoroutine: every exit of a training run — a return, a
// shape error, an updater's panic and a sampler's — has released every
// sampler it started.
func TestTrainLeavesNoGoroutine(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		cfg := TrainConfig{Dim: 8, Epochs: 2, Workers: workers, Partitions: 2, Seed: 1}
		if _, err := Train(d, cfg); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, before, fmt.Sprintf("Train with %d workers", workers))
		paths, err := WritePartitions(d, filepath.Join(t.TempDir(), "parts"), 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := TrainFromDisk(d, paths, cfg); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, before, fmt.Sprintf("TrainFromDisk with %d workers", workers))
	}

	small, _ := NewModel(DistMult, 2, 1, 4, 1)
	if err := TrainInto(small, d, TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("undersized model accepted")
	}
	waitGoroutines(t, before, "the shape error")

	// 12 000 steps an epoch: the sampler waits on a full ring.
	big := matchingDataset(6000)
	model, _ := NewModel(DistMult, big.NumEntities(), big.NumRelations(), 8, 1)
	for _, after := range []int{1, 5000, 12001} { // first block; ring drained once; second epoch
		got := func() (p any) {
			defer func() { p = recover() }()
			return TrainInto(&panicking{Model: model, after: after}, big, TrainConfig{Dim: 8, Epochs: 2, Workers: 1})
		}()
		if got != "update failed" {
			t.Fatalf("Update's panic at step %d surfaced as %v", after, got)
		}
		waitGoroutines(t, before, fmt.Sprintf("a panic at step %d", after))
	}

	got := func() (p any) {
		defer func() { p = recover() }()
		runWorker(model, d, []int32{0, int32(len(d.Triples))}, TrainConfig{Negatives: 1}, 1, nil)
		return nil
	}()
	if _, ok := got.(runtime.Error); !ok {
		t.Fatalf("the sampler's panic surfaced as %v, want its runtime error", got)
	}
	waitGoroutines(t, before, "a sampler's panic")
}
