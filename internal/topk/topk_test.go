package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

type item struct{ score, id int }

func worse(a, b item) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

// The heap against a full sort: heavy ties, k from 1 past n, every
// arrival order of the same items giving the same answer.
func TestHeapMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 300; round++ {
		n := rng.Intn(60)
		items := make([]item, n)
		for i := range items {
			items[i] = item{score: rng.Intn(6), id: i}
		}
		want := append([]item(nil), items...)
		sort.Slice(want, func(i, j int) bool { return worse(want[j], want[i]) })
		for _, k := range []int{1, 2, 5, n, n + 3} {
			rng.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
			h := New(k, n, worse)
			for _, it := range items {
				if h.Admits(it) {
					h.Push(it)
				}
			}
			got := h.Sorted()
			if exp := want[:min(k, n)]; !reflect.DeepEqual(got, exp) && len(got)+len(exp) > 0 {
				t.Fatalf("n %d k %d: got %v, want %v", n, k, got, exp)
			}
		}
	}
}
