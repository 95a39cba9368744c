package embedding

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"saga/internal/kg"
)

// refStep is the DistMult step contract of the package comment on plain
// rows, element by element; h and t may be one slice.
func refStep(h, r, t []float32, label, lr float64) {
	var l [8]float32
	for i := range h {
		p := float32(h[i] * r[i])
		l[i%8] += float32(p * t[i])
	}
	s := ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
	g := -label * sigmoid(-label*float64(s))
	gf, decay := float32(lr*g), float32(1-lr*l2Reg)
	for i := range h {
		hv, rv, tv := h[i], r[i], t[i]
		gh := float32(gf * hv)
		h[i] = float32(hv*decay) - float32(float32(gf*rv)*tv)
		r[i] = float32(rv*decay) - float32(gh*tv)
		t[i] = float32(tv*decay) - float32(gh*rv)
	}
}

// TestDistMultUpdateMatchesStepContract drives Update — whichever kernel
// body this build dispatches to — through every way its five rows can
// coincide, against refStep on a row-per-slice copy of the parameters.
func TestDistMultUpdateMatchesStepContract(t *testing.T) {
	shapes := []struct {
		name           string
		h, tl, nh, ntl int32
	}{
		{"tail corrupted (nh≡h)", 0, 1, 0, 2},
		{"head corrupted (nt≡t)", 0, 1, 3, 1},
		{"self-loop negative (nh≡nt≡t)", 0, 1, 1, 1},
		{"self-loop negative (nh≡nt≡h)", 0, 1, 0, 0},
		{"self-loop positive (h≡t)", 2, 2, 2, 4},
		{"negative equals positive", 0, 1, 0, 1},
	}
	for _, dim := range []int{1, 7, 8, 20, 32, 33} {
		for _, sh := range shapes {
			model, err := NewModel(DistMult, 5, 2, dim, int64(dim))
			if err != nil {
				t.Fatal(err)
			}
			m := model.(*distMultModel)
			ent, rel := make([][]float32, 5), make([][]float32, 2)
			for e := range ent {
				ent[e] = append([]float32(nil), m.entRow(int32(e))...)
			}
			for r := range rel {
				rel[r] = append([]float32(nil), m.relRow(int32(r))...)
			}
			for round := 0; round < 3; round++ {
				m.Update(sh.h, 1, sh.tl, sh.nh, sh.ntl, 0.08)
				refStep(ent[sh.h], rel[1], ent[sh.tl], 1, 0.08)
				refStep(ent[sh.nh], rel[1], ent[sh.ntl], -1, 0.08)
			}
			for e := range ent {
				for i, want := range ent[e] {
					if got := m.entRow(int32(e))[i]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("dim %d, %s: entity %d[%d] = %v, want %v", dim, sh.name, e, i, got, want)
					}
				}
			}
			for r := range rel {
				for i, want := range rel[r] {
					if got := m.relRow(int32(r))[i]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("dim %d, %s: relation %d[%d] = %v, want %v", dim, sh.name, r, i, got, want)
					}
				}
			}
		}
	}
}

// paramHash is FNV-1a over the parameter matrices' float32 bits.
func paramHash(t *testing.T, m Model) uint64 {
	t.Helper()
	b, _, err := baseOf(m)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var w [4]byte
	for _, mat := range [][]float32{b.ent, b.rel} {
		for _, x := range mat {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(x))
			h.Write(w[:])
		}
	}
	return h.Sum64()
}

// TestTrainingIsDeterministic: one worker and one seed give the same
// parameter bytes on every run, through every entry to the bucket loop,
// and — by the committed hashes — in the assembly and the purego build
// alike. Dim 20 keeps the kernels' masked tail in play.
func TestTrainingIsDeterministic(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	cfg := TrainConfig{Model: DistMult, Dim: 20, Epochs: 4, LearningRate: 0.08, Negatives: 3, Workers: 1, Seed: 9}

	first, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := paramHash(t, first)

	again, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := paramHash(t, again); got != want {
		t.Fatalf("second run: %016x, first: %016x", got, want)
	}
	onePart := cfg
	onePart.Partitions = 1 // the default, spelled out
	if m, err := Train(d, onePart); err != nil || paramHash(t, m) != want {
		t.Fatalf("Partitions=1: %v, hash differs from the default's", err)
	}
	into, err := NewModel(cfg.Model, d.NumEntities(), d.NumRelations(), cfg.Dim, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := TrainInto(into, d, cfg); err != nil {
		t.Fatal(err)
	}
	if got := paramHash(t, into); got != want {
		t.Fatalf("NewModel+TrainInto: %016x, Train: %016x", got, want)
	}

	paths, err := WritePartitions(d, filepath.Join(t.TempDir(), "parts"), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	disk, _, err := TrainFromDisk(d, paths, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diskAgain, _, err := TrainFromDisk(d, paths, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDisk := paramHash(t, disk)
	if got := paramHash(t, diskAgain); got != wantDisk {
		t.Fatalf("second disk run: %016x, first: %016x", got, wantDisk)
	}

	// math.Exp sits between the two kernel halves and has per-architecture
	// bodies in the standard library; the committed hashes are amd64's.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are for amd64; here Train = %016x, TrainFromDisk = %016x", want, wantDisk)
	}
	const goldenTrain, goldenDisk = uint64(0x14c71d44dab9ab2a), uint64(0x2f27359d3bf52ede)
	if want != goldenTrain || wantDisk != goldenDisk {
		t.Fatalf("Train = %#016x (golden %#016x), TrainFromDisk = %#016x (golden %#016x)", want, goldenTrain, wantDisk, goldenDisk)
	}
}

func TestKnownMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		nEnt, nRel := 2+rng.Intn(60), 1+rng.Intn(5)
		var facts []Fact
		add := func(s, p, o int) {
			facts = append(facts, Fact{Subject: kg.EntityID(1000 + s), Predicate: kg.PredicateID(7 + p), Object: kg.EntityID(1000 + o)})
		}
		for i, n := 0, rng.Intn(400); i < n; i++ {
			add(rng.Intn(nEnt), rng.Intn(nRel), rng.Intn(nEnt))
		}
		hub := rng.Intn(nEnt) // one head far past the linear-scan bound
		for o := 0; o < nEnt; o++ {
			for p := 0; p < nRel; p++ {
				if rng.Intn(3) > 0 {
					add(hub, p, o)
				}
			}
		}
		facts = append(facts, facts[:len(facts)/3]...) // duplicates
		rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })

		d := NewDatasetFromFacts(facts)
		ref := make(map[[3]int32]bool)
		for _, f := range facts {
			h, _ := d.EntityIndex(f.Subject)
			r, _ := d.RelationIndex(f.Predicate)
			o, _ := d.EntityIndex(f.Object)
			ref[[3]int32{h, r, o}] = true
		}
		if len(d.Triples) != len(ref) {
			t.Fatalf("trial %d: %d triples, %d distinct facts", trial, len(d.Triples), len(ref))
		}
		children := map[string]*Dataset{"full": d}
		children["WithTriples"] = d.WithTriples(func(tr [3]int32) bool { return tr[0]%2 == 0 })
		if len(d.Triples) >= 2 {
			train, test, err := d.Split(0.3, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			children["Split train"], children["Split test"] = train, test
		}
		children["disk bucket"] = d.sharing(d.Triples[:len(d.Triples)/2])
		n := int32(d.NumEntities())
		for name, c := range children {
			for h := int32(-1); h <= n; h++ {
				for r := int32(-1); r <= int32(d.NumRelations()); r++ {
					for o := int32(-1); o <= n; o++ {
						if got, want := c.Known(h, r, o), ref[[3]int32{h, r, o}]; got != want {
							t.Fatalf("trial %d, %s: Known(%d,%d,%d) = %v, want %v", trial, name, h, r, o, got, want)
						}
					}
				}
			}
		}
	}
}

func TestReadPartitionRejectsRecordsOutsideVocabulary(t *testing.T) {
	w := testWorld(t)
	d := NewDataset(entityView(t, w))
	paths, err := WritePartitions(d, t.TempDir(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	nEnt, nRel := d.NumEntities(), d.NumRelations()
	if _, err := ReadPartition(paths[0], nEnt, nRel); err != nil {
		t.Fatalf("own partition rejected: %v", err)
	}
	for _, c := range []struct{ nEnt, nRel int }{{nEnt - 1, nRel}, {nEnt, nRel - 1}, {0, 0}} {
		if _, err := ReadPartition(paths[0], c.nEnt, c.nRel); err == nil {
			t.Fatalf("partition accepted against %d entities, %d relations", c.nEnt, c.nRel)
		}
	}
	// The trainer reports it too, instead of indexing past the model.
	small := NewDataset(entityView(t, w)[:10])
	if _, _, err := TrainFromDisk(small, paths, TrainConfig{Epochs: 1, Workers: 1}); err == nil {
		t.Fatal("TrainFromDisk accepted a partition written for a larger vocabulary")
	}
}

var knownSink bool

// BenchmarkDatasetKnown prices one probe of the known-triple filter on a
// bench-shaped dataset (20 000 heads of out-degree 8, 6 relations, one
// hub head of degree 5 000): a hit and a miss in random access order, as
// the sampler issues them, and a probe of the hub's list.
func BenchmarkDatasetKnown(b *testing.B) {
	const nEnt, nRel, degree, hubDegree = 20000, 6, 8, 5000
	rng := rand.New(rand.NewSource(1))
	var facts []Fact
	for h := 1; h < nEnt; h++ {
		for i := 0; i < degree; i++ {
			facts = append(facts, Fact{kg.EntityID(h), kg.PredicateID(rng.Intn(nRel)), kg.EntityID(rng.Intn(nEnt))})
		}
	}
	for i := 0; i < hubDegree; i++ {
		facts = append(facts, Fact{0, kg.PredicateID(rng.Intn(nRel)), kg.EntityID(rng.Intn(nEnt))})
	}
	d := NewDatasetFromFacts(facts)
	hub, _ := d.EntityIndex(0)
	probes := make([][3]int32, 1<<16)
	run := func(name string, fill func() [3]int32) {
		for i := range probes {
			probes[i] = fill()
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := probes[i&(len(probes)-1)]
				knownSink = d.Known(p[0], p[1], p[2])
			}
		})
	}
	run("hit", func() [3]int32 { return d.Triples[rng.Intn(len(d.Triples))] })
	run("miss", func() [3]int32 {
		return [3]int32{rng.Int31n(int32(d.NumEntities())), rng.Int31n(nRel), rng.Int31n(int32(d.NumEntities()))}
	})
	run("hub", func() [3]int32 { return [3]int32{hub, rng.Int31n(nRel), rng.Int31n(int32(d.NumEntities()))} })
}
