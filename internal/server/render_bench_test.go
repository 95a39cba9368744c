package server

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"saga/internal/kg"
	"saga/saga"
)

// BenchmarkRenderEntityRows renders one page of 250 person rows of the
// end-to-end benchmark's world (20 000 people) through the /query row
// encoder and a server's entity memo: the people in ID order, as a
// posting walk's page lists them, and shuffled; hot, the same page again
// and again, and cold, after a 64 MB sweep has pushed the records, the
// memo and its bytes out of the caches; and fill, the page's first
// render on a fresh server, which escapes every key and name and fills
// the memo. ns/row is the number, the render alone (a cold op's ns/op
// includes its sweep); allocs/op must stay 0 but in fill, which reports
// the memo's bytes and entry per rendered entity (memo_B/row) and its
// slot table (table_B), which spans the IDs up to the page's highest.
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
	var srv Server
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
				enc.names = &srv.names
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
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		var m *entityMemo
		for i := 0; i < b.N; i++ {
			m = new(entityMemo)
			enc.names = m
			render(sorted)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pageSize), "ns/row")
		held := m.used + m.buf.Len() + pageSize*int(unsafe.Sizeof(memoEntry{}))
		b.ReportMetric(float64(held)/pageSize, "memo_B/row")
		table := *m.slots.Load()
		b.ReportMetric(float64(len(table)*int(unsafe.Sizeof(table[0]))), "table_B")
	})
}
