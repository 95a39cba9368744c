package vecindex

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomVectors(n, dim int, seed int64) ([]uint64, []Vector) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint64, n)
	vecs := make([]Vector, n)
	for i := 0; i < n; i++ {
		ids[i] = uint64(i + 1)
		v := make(Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = Normalize(v)
	}
	return ids, vecs
}

func TestVectorOps(t *testing.T) {
	a := Vector{1, 0, 0}
	b := Vector{0, 1, 0}
	if Dot(a, b) != 0 {
		t.Fatal("orthogonal dot != 0")
	}
	if Dot(a, a) != 1 {
		t.Fatal("unit dot != 1")
	}
	if Cosine(a, b) != 0 || Cosine(a, a) != 1 {
		t.Fatal("cosine wrong")
	}
	if Cosine(a, Vector{0, 0, 0}) != 0 {
		t.Fatal("zero-vector cosine must be 0")
	}
	v := Normalize(Vector{3, 4, 0})
	if math.Abs(float64(Norm(v))-1) > 1e-6 {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := Normalize(Vector{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector normalize must be identity")
	}
	if got := L2Distance(a, b); math.Abs(float64(got)-math.Sqrt2) > 1e-6 {
		t.Fatalf("L2 = %v", got)
	}
}

func TestFlatAddSearch(t *testing.T) {
	f := NewFlat()
	if err := f.Add(1, Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(2, Vector{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(3, Vector{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	res := f.Search(Vector{1, 0}, 2)
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 3 {
		t.Fatalf("Search = %v", res)
	}
	if res[0].Score < res[1].Score {
		t.Fatal("results not sorted by score")
	}
	if f.Len() != 3 || f.Dim() != 2 {
		t.Fatalf("Len/Dim = %d/%d", f.Len(), f.Dim())
	}
}

func TestFlatDimMismatch(t *testing.T) {
	f := NewFlat()
	if err := f.Add(1, Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(2, Vector{1, 0, 0}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestFlatReplace(t *testing.T) {
	f := NewFlat()
	if err := f.Add(1, Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(1, Vector{0, 1}); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Fatalf("Len after replace = %d", f.Len())
	}
	v, ok := f.Get(1)
	if !ok || v[0] != 0 || v[1] != 1 {
		t.Fatalf("Get after replace = %v,%v", v, ok)
	}
	if _, ok := f.Get(999); ok {
		t.Fatal("Get unknown id")
	}
}

func TestFlatSearchFiltered(t *testing.T) {
	f := NewFlat()
	for i := uint64(1); i <= 10; i++ {
		if err := f.Add(i, Vector{float32(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.SearchFiltered(context.Background(), Vector{1, 0}, 3, func(id uint64) bool { return id%2 == 0 })
	if err != nil || len(res) != 3 {
		t.Fatalf("filtered results = %v", res)
	}
	for _, r := range res {
		if r.ID%2 != 0 {
			t.Fatalf("filter violated: %v", res)
		}
	}
}

func TestSearchKEdgeCases(t *testing.T) {
	f := NewFlat()
	for i := uint64(1); i <= 3; i++ {
		if err := f.Add(i, Vector{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Search(Vector{1}, 0); got != nil {
		t.Fatalf("k=0 = %v", got)
	}
	if got := f.Search(Vector{1}, 10); len(got) != 3 {
		t.Fatalf("k>n = %v", got)
	}
	empty := NewFlat()
	if got := empty.Search(Vector{1}, 5); len(got) != 0 {
		t.Fatalf("empty index search = %v", got)
	}
}

func TestIVFBuildAndSearch(t *testing.T) {
	ids, vecs := randomVectors(500, 16, 1)
	ix, err := BuildIVF(ids, vecs, IVFOptions{NList: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.ids) != 500 || len(ix.vecs[0]) != 16 || len(ix.centroids) != 16 {
		t.Fatalf("ix = len %d dim %d nlist %d", len(ix.ids), len(ix.vecs[0]), len(ix.centroids))
	}
	// With nprobe == nlist the IVF search is exact: compare to flat.
	flat := NewFlat()
	for i := range ids {
		if err := flat.Add(ids[i], vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 20; q++ {
		query := vecs[q*7%len(vecs)]
		got := ix.SearchNProbe(query, 10, 16)
		want := flat.Search(query, 10)
		if len(got) != len(want) {
			t.Fatalf("result sizes: %d vs %d", len(got), len(want))
		}
		gotSet := map[uint64]bool{}
		for _, r := range got {
			gotSet[r.ID] = true
		}
		for _, r := range want {
			if !gotSet[r.ID] {
				t.Fatalf("full-probe IVF missed exact neighbor %d", r.ID)
			}
		}
	}
}

func TestIVFRecallImprovesWithNProbe(t *testing.T) {
	ids, vecs := randomVectors(1000, 24, 3)
	ix, err := BuildIVF(ids, vecs, IVFOptions{NList: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	flat := NewFlat()
	for i := range ids {
		if err := flat.Add(ids[i], vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	recall := func(nprobe int) float64 {
		var hit, total int
		for q := 0; q < 50; q++ {
			query := vecs[q*13%len(vecs)]
			want := flat.Search(query, 10)
			got := ix.SearchNProbe(query, 10, nprobe)
			gotSet := map[uint64]bool{}
			for _, r := range got {
				gotSet[r.ID] = true
			}
			for _, r := range want {
				total++
				if gotSet[r.ID] {
					hit++
				}
			}
		}
		return float64(hit) / float64(total)
	}
	r1 := recall(1)
	r32 := recall(32)
	if r32 < 0.999 {
		t.Fatalf("full-probe recall = %v, want 1.0", r32)
	}
	if r1 >= r32 {
		t.Fatalf("recall(1)=%v not below recall(32)=%v: nprobe knob has no effect", r1, r32)
	}
	if r1 < 0.05 {
		t.Fatalf("recall(1)=%v implausibly low; clustering broken", r1)
	}
}

func TestIVFErrors(t *testing.T) {
	if _, err := BuildIVF(nil, nil, IVFOptions{}); err == nil {
		t.Fatal("empty build accepted")
	}
	if _, err := BuildIVF([]uint64{1}, []Vector{{1}, {2}}, IVFOptions{}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := BuildIVF([]uint64{1, 2}, []Vector{{1, 2}, {1}}, IVFOptions{}); err == nil {
		t.Fatal("inconsistent dims accepted")
	}
}

func TestIVFDuplicatePoints(t *testing.T) {
	// All points identical: k-means++ must not loop forever.
	n := 20
	ids := make([]uint64, n)
	vecs := make([]Vector, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
		vecs[i] = Vector{1, 1}
	}
	ix, err := BuildIVF(ids, vecs, IVFOptions{NList: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := ix.SearchNProbe(Vector{1, 1}, 5, 4)
	if len(res) != 5 {
		t.Fatalf("search on duplicates = %v", res)
	}
}

// Property: flat Search(k) returns results sorted descending, with scores
// equal to the true top-k inner products computed naively.
func TestFlatTopKMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(50)
		dim := 4
		flat := NewFlat()
		vecs := make([]Vector, n)
		for i := 0; i < n; i++ {
			v := make(Vector, dim)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			vecs[i] = v
			if err := flat.Add(uint64(i+1), v); err != nil {
				return false
			}
		}
		q := make(Vector, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		k := 1 + rng.Intn(10)
		got := flat.Search(q, k)
		// Naive: compute all scores, sort.
		scores := make([]float32, n)
		for i := range vecs {
			scores[i] = Dot(q, vecs[i])
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				return false
			}
		}
		// kth best score from naive must equal got's last score.
		sorted := append([]float32(nil), scores...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] > sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		want := k
		if want > n {
			want = n
		}
		if len(got) != want {
			return false
		}
		return math.Abs(float64(got[len(got)-1].Score-sorted[want-1])) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewFlatFromRowsEqualsAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, dim = 300, 12
	ids, rows := make([]uint64, n), make([]float32, n*dim)
	byAdd := NewFlat()
	for i := range ids {
		ids[i] = uint64(1000 - 3*i)
		row := rows[i*dim : (i+1)*dim]
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		if err := byAdd.Add(ids[i], row); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := NewFlatFromRows(ids, rows)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != n || bulk.Dim() != dim {
		t.Fatalf("bulk index: %d vectors of dim %d", bulk.Len(), bulk.Dim())
	}
	for i := 0; i < 20; i++ {
		q, _ := byAdd.Get(ids[i*7])
		if got, _ := bulk.Get(ids[i*7]); !sameVector(got, q) {
			t.Fatalf("Get(%d) differs", ids[i*7])
		}
		if got, want := bulk.Search(q, 10), byAdd.Search(q, 10); !sameResults(got, want) {
			t.Fatalf("Search differs: %v vs %v", got, want)
		}
		got, _ := bulk.scan(context.Background(), q, 10, true, nil)
		want, _ := byAdd.scan(context.Background(), q, 10, true, nil)
		if !sameResults(got, want) {
			t.Fatalf("cosine search differs: %v vs %v", got, want)
		}
	}
	// An index built in bulk grows like any other.
	if err := bulk.Add(5, make(Vector, dim)); err != nil || bulk.Len() != n+1 {
		t.Fatalf("Add after bulk load: %v, len %d", err, bulk.Len())
	}
	for name, c := range map[string]struct {
		ids  []uint64
		rows []float32
	}{
		"no ids":       {nil, []float32{1}},
		"no rows":      {[]uint64{1}, nil},
		"ragged":       {[]uint64{1, 2}, []float32{1, 2, 3}},
		"duplicate id": {[]uint64{4, 4}, []float32{1, 2}},
	} {
		if _, err := NewFlatFromRows(c.ids, c.rows); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func sameVector(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}
