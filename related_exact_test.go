package repro_test

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"saga/internal/vecindex"
	"saga/saga"
)

// laneDot is the float32 scan kernel's contract (internal/vecindex):
// element i into lane i%8, each product rounded before it is added, the
// lanes reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
func laneDot(q, row []float32) float32 {
	var l [8]float32
	i := 0
	for ; i+8 <= len(q); i += 8 {
		a, b := q[i:i+8:i+8], row[i:i+8:i+8]
		l[0] += float32(a[0] * b[0])
		l[1] += float32(a[1] * b[1])
		l[2] += float32(a[2] * b[2])
		l[3] += float32(a[3] * b[3])
		l[4] += float32(a[4] * b[4])
		l[5] += float32(a[5] * b[5])
		l[6] += float32(a[6] * b[6])
		l[7] += float32(a[7] * b[7])
	}
	for j := 0; i < len(q); i, j = i+1, j+1 {
		l[j] += float32(q[i] * row[i])
	}
	return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

// TestRelatedMatchesFloatScanBenchSize: on the end-to-end benchmark's
// world (seed 1, 20 000 people, DistMult dim 32), RelatedEntities(id, 10)
// for every person equals a plain float32 cosine scan of every entity
// row, ids and score bits alike, and the prefilter's re-scored rows per
// miss are logged (median and max). Under the race detector, which slows
// the reference scan more than tenfold and has no concurrency to check
// here, every 50th person is checked.
func TestRelatedMatchesFloatScanBenchSize(t *testing.T) {
	if testing.Short() {
		t.Skip("scans 20 000 × 20 824 rows in float32")
	}
	f := getServingFixture(t)
	const k = 10
	ents, rows := f.p.Dataset().Ents, f.p.Model().EntityVectors()
	dim := len(rows) / f.p.Model().NumEntities()
	rows = rows[:len(ents)*dim]
	ids := make([]uint64, len(ents))
	rowOf := make(map[saga.EntityID]int, len(ents))
	norms := make([]float32, len(ents))
	for i, e := range ents {
		ids[i], rowOf[e] = uint64(e), i
		norms[i] = vecindex.Norm(rows[i*dim : (i+1)*dim])
	}
	// A copy of the service's index, so each scan's re-scored rows can be
	// read off its counter.
	idx, err := vecindex.NewFlatFromRows(ids, slices.Clone(rows))
	if err != nil {
		t.Fatal(err)
	}
	people := f.world.People
	if raceEnabled {
		sample := make([]saga.EntityID, 0, len(people)/50+1)
		for i := 0; i < len(people); i += 50 {
			sample = append(sample, people[i])
		}
		people = sample
	}
	want := make([][]saga.ScoredEntity, len(people))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			type hit struct {
				id    saga.EntityID
				score float32
			}
			better := func(a, b hit) int { // score descending, NaN last, then id
				switch {
				case a.score > b.score || (a.score == a.score && b.score != b.score):
					return -1
				case a.score < b.score || (a.score != a.score && b.score == b.score):
					return 1
				}
				return int(a.id) - int(b.id)
			}
			top := make([]hit, 0, k+1) // the best k so far, best first
			for p := w; p < len(people); p += workers {
				qi := rowOf[people[p]]
				q, qn := rows[qi*dim:(qi+1)*dim], norms[qi]
				top = top[:0]
				for i, e := range ents {
					if i == qi {
						continue
					}
					s := laneDot(q, rows[i*dim:(i+1)*dim])
					if norms[i] == 0 {
						s = 0
					} else {
						s /= qn * norms[i]
					}
					h := hit{e, s}
					if len(top) == k && better(h, top[k-1]) >= 0 {
						continue
					}
					j, _ := slices.BinarySearchFunc(top, h, better)
					top = slices.Insert(top, j, h)[:min(len(top)+1, k)]
				}
				for _, h := range top {
					want[p] = append(want[p], saga.ScoredEntity{ID: h.id, Score: float64(h.score)})
				}
			}
		}(w)
	}
	wg.Wait()
	rescored, plain := make([]int, len(people)), make([]int, len(people))
	for p, id := range people {
		got, err := f.p.RelatedEntities(id, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("%v: %d related entities", id, len(got))
		}
		for i := range got {
			if got[i].ID != want[p][i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[p][i].Score) {
				t.Fatalf("%v rank %d: got %v, float scan %v", id, i, got, want[p])
			}
		}
		before := idx.Rescored()
		self := uint64(id)
		if _, ok, err := idx.SearchCosineByID(context.Background(), self, k+1, func(c uint64) bool { return c != self }); !ok || err != nil {
			t.Fatalf("%v: copy index: %v, %v", id, ok, err)
		}
		rescored[p] = int(idx.Rescored() - before)
		before = idx.Rescored()
		qi := rowOf[id]
		idx.Search(rows[qi*dim:(qi+1)*dim], k) // NearestByVector's scan
		plain[p] = int(idx.Rescored() - before)
	}
	slices.Sort(rescored)
	slices.Sort(plain)
	t.Logf("rows re-scored per miss over %d people: median %d, max %d (of %d rows); inner-product scan of the same rows: median %d, max %d",
		len(people), rescored[len(rescored)/2], rescored[len(rescored)-1], len(ents), plain[len(plain)/2], plain[len(plain)-1])
}
