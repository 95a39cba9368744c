// Package embedding implements the knowledge-graph embedding pipeline of
// §2 of the paper: shallow embedding models (TransE, DistMult, ComplEx)
// trained with negative sampling and Hogwild-style parallel SGD over
// random edge-based partitions, optionally streamed from disk; link-
// prediction evaluation (MRR, Hits@K); and traversal-based related-entity
// embeddings built from pre-computed random walks.
//
// The paper trains on GPU clusters; this reproduction substitutes
// multi-goroutine CPU training with the same partitioned data-parallel
// structure.
//
// # Parameters and the step kernel
//
// A model's parameters are two flat row-major float32 matrices (entities,
// relations); a row is a full-capacity window of its matrix. DistMult —
// the model the serving stack trains — takes every logistic step through
// one kernel pair in package vecindex, beside the scan kernel and under
// the same rules (a Go body that is the contract, an AVX2 body that must
// match it bit for bit, one CPU check, -tags purego forces Go):
//
//   - vecindex.TriDot(h, r, t) is the step's score Σ (h[i]·r[i])·t[i]:
//     both products rounded to float32, element i accumulated in lane i%8
//     of eight float32 lanes that start at +0, the lanes summed as
//     ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — never a fused multiply-add.
//   - the sigmoid between the halves is math.Exp in float64, in Go.
//   - vecindex.TriUpdate(h, r, t, gf, decay), with gf = lr·dLoss/ds and
//     decay = 1 − lr·l2Reg, sets h' = h·decay − (gf·r)·t,
//     r' = r·decay − (gf·h)·t, t' = t·decay − (gf·h)·r, every product and
//     difference rounded to float32 and all three computed from the old
//     values of the element.
//
// Rows either coincide or are disjoint. A corrupted end equals the
// triple's other end about once per |E| draws, so h and t can be one row:
// each element is read from all three rows before any is written and the
// writes go h, r, t, so the value that stays is t'. Both bodies do exactly
// this. With one worker and one seed the trained matrices are therefore
// the same bytes on every run and on every CPU, and /related answers do
// not depend on the machine (TestTrainingIsDeterministic commits their
// hash). TransE and ComplEx train through plain Go loops over the same
// rows; Score is the float64 definition for every kind, and is what
// serving and Evaluate read.
//
// # The known-triple filter
//
// Negative sampling and filtered evaluation ask "is (h,r,t) a known
// triple?" a few million times per training. The answer comes from two
// arrays, not a hash map: Dataset.knownRT holds r<<32|t for every known
// triple, grouped by head and ascending within a head, and
// Dataset.knownOff[h] is where head h's group starts — 4·(|E|+1) + 8·|T|
// bytes. A probe scans the head's group (mean out-degree is a handful:
// one or two cache lines) and binary-searches a hub's. Datasets derived
// from one another (Split, WithTriples, disk buckets) share the arrays
// through the one constructor, sharing.
package embedding

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"saga/internal/kg"
)

// Dataset is an embedding training set: entity-valued triples re-indexed
// into dense [0,n) entity and relation indexes.
type Dataset struct {
	// Ents maps dense index -> graph entity ID.
	Ents []kg.EntityID
	// Rels maps dense index -> graph predicate ID.
	Rels []kg.PredicateID
	// Triples are (head, relation, tail) dense index records.
	Triples [][3]int32

	entIdx map[kg.EntityID]int32
	relIdx map[kg.PredicateID]int32
	// The known-triple filter (see the package comment): knownRT holds
	// r<<32|t for every observed (h,r,t), head h's in ascending order at
	// knownRT[knownOff[h]:knownOff[h+1]].
	knownOff []int32
	knownRT  []uint64
}

// Fact is one entity-valued triple by graph ID — 12 bytes where a
// kg.Triple is 128, which is what a consumer that filters the graph
// itself should collect for NewDatasetFromFacts.
type Fact struct {
	Subject   kg.EntityID
	Predicate kg.PredicateID
	Object    kg.EntityID
}

// NewDataset builds a dataset from triples, keeping only entity-valued
// facts (literals cannot participate in translational embeddings).
func NewDataset(triples []kg.Triple) *Dataset {
	facts := make([]Fact, 0, len(triples))
	for i := range triples {
		if t := &triples[i]; t.Object.IsEntity() {
			facts = append(facts, Fact{t.Subject, t.Predicate, t.Object.Entity})
		}
	}
	return NewDatasetFromFacts(facts)
}

// NewDatasetFromFacts builds a dataset from entity-valued facts, which it
// sorts in place; duplicates collapse.
//
// The facts are ordered by (subject, predicate, object) — the order of
// kg.TripleKey.Compare over entity-valued triples — before interning, so
// the dense entity/relation index assignment, and therefore every seeded
// training run downstream, is a function of the fact *set*, not of the
// order the caller happened to produce (graph snapshots and views surface
// triples in map-iteration order, which Go randomizes per process).
func NewDatasetFromFacts(facts []Fact) *Dataset {
	slices.SortFunc(facts, func(a, b Fact) int {
		if a.Subject != b.Subject {
			return cmp.Compare(a.Subject, b.Subject)
		}
		if a.Predicate != b.Predicate {
			return cmp.Compare(a.Predicate, b.Predicate)
		}
		return cmp.Compare(a.Object, b.Object)
	})
	d := &Dataset{
		entIdx:  make(map[kg.EntityID]int32),
		relIdx:  make(map[kg.PredicateID]int32),
		Triples: make([][3]int32, 0, len(facts)),
	}
	for i, f := range facts {
		if i > 0 && f == facts[i-1] {
			continue
		}
		d.Triples = append(d.Triples, [3]int32{d.internEntity(f.Subject), d.internRelation(f.Predicate), d.internEntity(f.Object)})
	}
	// Counting sort of the (r,t) pairs by head, then each head's few in
	// ascending order.
	d.knownOff = make([]int32, len(d.Ents)+1)
	for _, t := range d.Triples {
		d.knownOff[t[0]+1]++
	}
	for h := range d.Ents {
		d.knownOff[h+1] += d.knownOff[h]
	}
	d.knownRT = make([]uint64, len(d.Triples))
	next := slices.Clone(d.knownOff[:len(d.Ents)])
	for _, t := range d.Triples {
		d.knownRT[next[t[0]]] = packRT(t[1], t[2])
		next[t[0]]++
	}
	for h := range d.Ents {
		slices.Sort(d.knownRT[d.knownOff[h]:d.knownOff[h+1]])
	}
	return d
}

func packRT(r, t int32) uint64 { return uint64(uint32(r))<<32 | uint64(uint32(t)) }

func (d *Dataset) internEntity(id kg.EntityID) int32 {
	if i, ok := d.entIdx[id]; ok {
		return i
	}
	i := int32(len(d.Ents))
	d.Ents = append(d.Ents, id)
	d.entIdx[id] = i
	return i
}

func (d *Dataset) internRelation(id kg.PredicateID) int32 {
	if i, ok := d.relIdx[id]; ok {
		return i
	}
	i := int32(len(d.Rels))
	d.Rels = append(d.Rels, id)
	d.relIdx[id] = i
	return i
}

// EntityIndex returns the dense index of a graph entity.
func (d *Dataset) EntityIndex(id kg.EntityID) (int32, bool) {
	i, ok := d.entIdx[id]
	return i, ok
}

// RelationIndex returns the dense index of a graph predicate.
func (d *Dataset) RelationIndex(id kg.PredicateID) (int32, bool) {
	i, ok := d.relIdx[id]
	return i, ok
}

// NumEntities returns the entity vocabulary size.
func (d *Dataset) NumEntities() int { return len(d.Ents) }

// NumRelations returns the relation vocabulary size.
func (d *Dataset) NumRelations() int { return len(d.Rels) }

// Known reports whether (h,r,t) is an observed triple; used to filter
// false negatives during sampling and evaluation.
func (d *Dataset) Known(h, r, t int32) bool {
	if h < 0 || int(h) >= len(d.knownOff)-1 {
		return false
	}
	rt, key := d.knownRT[d.knownOff[h]:d.knownOff[h+1]], packRT(r, t)
	if len(rt) > 16 { // a hub: past two cache lines, search
		_, ok := slices.BinarySearch(rt, key)
		return ok
	}
	for _, k := range rt {
		if k >= key {
			return k == key
		}
	}
	return false
}

// sharing returns a dataset over triples that shares d's vocabulary and
// known-triple filter — the one way to derive a dataset, so an index
// added to Dataset cannot be left behind in a child.
func (d *Dataset) sharing(triples [][3]int32) *Dataset {
	sub := *d
	sub.Triples = triples
	return &sub
}

// WithTriples returns a dataset that shares this dataset's vocabulary and
// known-triple filter but holds only the triples accepted by keep. Use it
// to carve training subsets out of a full dataset without losing the
// index space (e.g. excluding held-out test triples from a noisy-view
// training run).
func (d *Dataset) WithTriples(keep func([3]int32) bool) *Dataset {
	var kept [][3]int32
	for _, t := range d.Triples {
		if keep(t) {
			kept = append(kept, t)
		}
	}
	return d.sharing(kept)
}

// Split partitions the triples into train/test subsets with the given test
// fraction, deterministically under seed. Both returned datasets share the
// full entity/relation vocabulary and the full "known" filter so filtered
// evaluation remains correct.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, errors.New("embedding: testFrac must be in (0,1)")
	}
	if len(d.Triples) < 2 {
		return nil, nil, fmt.Errorf("embedding: too few triples to split: %d", len(d.Triples))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(d.Triples))
	nTest := int(float64(len(d.Triples)) * testFrac)
	if nTest < 1 {
		nTest = 1
	}
	mk := func(idx []int) *Dataset {
		triples := make([][3]int32, len(idx))
		for j, i := range idx {
			triples[j] = d.Triples[i]
		}
		return d.sharing(triples)
	}
	test = mk(perm[:nTest])
	train = mk(perm[nTest:])
	return train, test, nil
}
