package server

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"saga/internal/kg"
	"saga/saga"
)

// BenchmarkRenderEntityRows renders one page of 250 person rows of the
// end-to-end benchmark's world (20 000 people) through the /query row
// encoder: the people in ID order, as a posting walk's page lists them,
// and shuffled; hot, the same page again and again, and cold, after a
// 64 MB sweep has pushed the records, keys and names out of the caches.
// ns/row is the number, the render alone (a cold op's ns/op includes its
// sweep); allocs/op must stay 0.
func BenchmarkRenderEntityRows(b *testing.B) {
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 20000, NumClusters: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const pageSize = 250
	rng := rand.New(rand.NewSource(1))
	page := make([]kg.EntityID, pageSize)
	for i, j := range rng.Perm(len(w.People))[:pageSize] {
		page[i] = w.People[j]
	}
	sorted := slices.Sorted(slices.Values(page))
	sweep := make([]byte, 64<<20)
	enc := newRowEncoder(w.Graph, []string{"p"})
	row := make([]kg.Value, 1)
	var dst []byte
	render := func(ids []kg.EntityID) {
		dst = append(dst[:0], '[')
		for _, id := range ids {
			row[0] = kg.EntityValue(id)
			dst = append(enc.appendRow(dst, row), ',')
		}
	}
	for _, order := range []struct {
		name string
		ids  []kg.EntityID
	}{{"id-order", sorted}, {"shuffled", page}} {
		for _, cold := range []bool{false, true} {
			name := order.name + "/hot"
			if cold {
				name = order.name + "/cold"
			}
			b.Run(name, func(b *testing.B) {
				render(order.ids)
				b.ReportAllocs()
				b.ResetTimer()
				var spent time.Duration // rendering alone: a cold op's sweep is not counted
				for i := 0; i < b.N; i++ {
					if cold {
						for j := 0; j < len(sweep); j += 64 {
							sweep[j]++
						}
					}
					start := time.Now()
					render(order.ids)
					spent += time.Since(start)
				}
				b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N*pageSize), "ns/row")
			})
		}
	}
}
