package vecindex

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// --- kernels ------------------------------------------------------------------

// refDotCodes states the integer kernel's contract row by row: row r of a
// group has codes c[16p+2r] and c[16p+2r+1] at pair p.
func refDotCodes(qp []int32, codes []int8, rows int) []int32 {
	out := make([]int32, rows)
	for i := range out {
		blk := codes[i/8*16*len(qp):]
		for p, w := range qp {
			lo, hi := int64(int16(w)), int64(w>>16)
			s := int64(out[i]) + int64(blk[16*p+2*(i%8)])*lo + int64(blk[16*p+2*(i%8)+1])*hi
			out[i] = int32(s)
		}
	}
	return out
}

func TestDotCodesBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, pairs := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17, 33, 258} {
		groups := 1 + rng.Intn(5)
		qp := make([]int32, pairs)
		codes := make([]int8, groups*16*pairs)
		for _, extreme := range []bool{false, true} {
			for i := range qp {
				lo, hi := int16(rng.Intn(65535)-32767), int16(rng.Intn(65535)-32767)
				if extreme { // the largest sums the kernel is specified for
					lo, hi = 32767, -32767
				}
				qp[i] = int32(uint32(uint16(lo)) | uint32(uint16(hi))<<16)
			}
			for i := range codes {
				codes[i] = int8(rng.Intn(255) - 127)
				if extreme {
					codes[i] = int8(127 * (1 - 2*(i%2)))
				}
			}
			want := refDotCodes(qp, codes, 8*groups)
			for name, kernel := range codeBodies() {
				got := make([]int32, 8*groups)
				kernel(got, qp, codes)
				for r := range got {
					if got[r] != want[r] {
						t.Fatalf("%s: %d pairs, row %d: got %d, want %d", name, pairs, r, got[r], want[r])
					}
				}
			}
		}
	}
}

func TestBoundMaskBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n <= 300; n += 1 + rng.Intn(9) {
		acc, w := make([]int32, n), make([]float32, n)
		for i := range acc {
			acc[i] = int32(rng.Intn(2001) - 1000)
			w[i] = float32(rng.Float64())
			if rng.Intn(10) == 0 {
				w[i] = float32(math.NaN())
			}
		}
		b := [4]float64{rng.Float64(), rng.Float64(), 1e-9, rng.NormFloat64() * 100}
		words := (n + 63) / 64
		want := make([]uint64, words)
		for r := range acc {
			if u := float64(w[r])*(float64(acc[r])*b[0]+b[1]) + b[2]; u >= b[3] || u != u {
				want[r/64] |= 1 << (r % 64)
			}
		}
		got := make([]uint64, words)
		for i := range got {
			got[i] = 0x5555 // every word must be written
		}
		boundMaskGo(got, acc, w, &b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("go: n %d word %d: %x, want %x", n, i, got[i], want[i])
			}
		}
		clear(got)
		boundMask(got, acc, w, &b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("dispatch: n %d word %d: %x, want %x", n, i, got[i], want[i])
			}
		}
	}
}

// --- the bound ----------------------------------------------------------------

// adversarialRows returns n rows of dim components built to make the
// bound tight for q: component 0 carries the row's largest magnitude (an
// exact code), every other component sits just inside half a code step
// from an integer code, on the side that q's component pushes the error
// to (the sign flips from row to row), so the row's quantization error
// nearly reaches σ·‖q‖₁/2.
func adversarialRows(rng *rand.Rand, q []float32, n int) []Vector {
	rows := make([]Vector, n)
	for i := range rows {
		sigma := math.Ldexp(1+rng.Float64(), rng.Intn(9)-4)
		side := float64(1 - 2*(i%2))
		row := make(Vector, len(q))
		row[0] = float32(127 * sigma)
		for j := 1; j < len(q); j++ {
			c := float64(rng.Intn(253) - 126)
			dir := side
			if q[j] < 0 {
				dir = -side
			}
			row[j] = float32(sigma * (c + dir*0.4999))
		}
		rows[i] = row
	}
	return rows
}

// TestPrefilterBoundsHold checks the bound itself: for every row, the
// float32 score the scan would compute lies in [lo, hi]. On rows built to
// push the quantization error against the bound, the error must come
// within a factor two of it (a bound much looser than derived would
// re-score rows for nothing; one tighter than derived fails the first
// check).
func TestPrefilterBoundsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(3701))
	worst := 0.0
	for trial := 0; trial < 400; trial++ {
		dim := 1 + rng.Intn(70)
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(9)-4))
		}
		q[0] *= 1e-3 // component 0 of an adversarial row has no error to add
		var rows []Vector
		if trial%2 == 0 {
			rows = adversarialRows(rng, q, 40)
		} else {
			rows = randomCase(rng, 40, dim, 0.05, 0.05).vecs
		}
		ids := make([]uint64, len(rows))
		for i := range ids {
			ids[i] = uint64(i)
		}
		var slab []float32
		for _, r := range rows {
			slab = append(slab, r...)
		}
		f, err := NewFlatFromRows(ids, slab)
		if err != nil {
			t.Fatal(err)
		}
		for _, cosine := range []bool{false, true} {
			qn := Norm(q)
			var pf prefilter
			if !pf.prepare(q, cosine, qn) || (cosine && qn == 0) {
				continue
			}
			acc := make([]int32, (len(rows)+7)&^7)
			dotCodes(acc, pf.qp, f.codes)
			factors := f.scales
			if cosine {
				factors = f.cscales
			}
			for i, row := range rows {
				s := refDotLanes(q, row)
				if cosine {
					s /= qn * f.norms[i]
				}
				lo, hi := pf.bounds(acc[i], factors[i])
				if lo != lo { // outside the tame range: always re-scored
					continue
				}
				if !(lo <= float64(s) && float64(s) <= hi) {
					t.Fatalf("trial %d cosine=%v row %d: score %v outside [%v, %v]", trial, cosine, i, s, lo, hi)
				}
				if trial%2 == 0 {
					mid, half := (lo+hi)/2, (hi-lo)/2
					worst = math.Max(worst, math.Abs(float64(s)-mid)/half)
				}
			}
		}
	}
	if worst < 0.5 {
		t.Fatalf("adversarial rows reach only %.3f of the bound", worst)
	}
	t.Logf("adversarial rows reach %.4f of the bound", worst)
}

// --- the scan against its specification ----------------------------------------

func floatBytes(vals ...float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// prefilterSeeds are FuzzPrefilterScan's committed inputs, each aimed at
// one way the prefilter could drop a row that belongs in the answer.
func prefilterSeeds() []struct {
	dim, k, flags uint8
	data          []byte
} {
	type seed = struct {
		dim, k, flags uint8
		data          []byte
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	var seeds []seed
	// Quantization errors against the bound: row 2 has the higher score,
	// row 1 the higher integer score (their errors point apart and nearly
	// reach the bound), so a bound cut in half drops row 2 for k=1.
	seeds = append(seeds, seed{5, 1, 0, floatBytes(
		0.001, 1, 1, 1, 1, // the query
		127, 11-0.4999, 11-0.4999, 11-0.4999, 10-0.4999,
		127, 10+0.4999, 10+0.4999, 10+0.4999, 10+0.4999,
		127, 0, 0, 0, 0,
	)})
	// Zero-norm rows score exactly 0, above every negative cosine.
	seeds = append(seeds, seed{3, 2, 0, floatBytes(
		1, 1, 1,
		-1, -2, -1, 0, 0, 0, -3, -1, -2, 0, 0, 0, -1, -1, -1,
	)})
	// A non-finite query, rows with NaN, ±Inf and extreme magnitudes.
	seeds = append(seeds, seed{4, 3, 0, floatBytes(
		1, nan, 2, 3,
		1, 2, 3, 4, inf, 1, 1, 1, 1e30, 1, 1, 1, 1e-30, 1e-30, 0, 0, -inf, 0, 0, 0,
	)})
	seeds = append(seeds, seed{3, 4, 0, floatBytes(
		1, 2, 3,
		1, 2, 3, nan, 1, 1, 3e38, 1, 1, 1e-41, 1e-41, 1e-41, 2, 2, 2, -1, -2, -3,
	)})
	// Duplicate rows tie at the k boundary; the keep filter rejects some.
	seeds = append(seeds, seed{3, 3, 3, floatBytes(
		0.5, -1, 2,
		1, 1, 1, 2, 2, 2, 1, 1, 1, 0.5, -1, 2, 1, 1, 1, 0.5, -1, 2, 3, 0, 0,
	)})
	// k past n, odd dims, re-coding by Add over existing ids.
	seeds = append(seeds, seed{7, 40, 4, floatBytes(
		3, -1, 4, -1, 5, -9, 2,
		6, -5, 3, 5, -8, 9, 7, 9, -3, 2, 3, 8, -4, 6, 2, 6, 4, -3, 3, 8, 3, 2, 7, 9, 5, 0, 2, 8, 8,
	)})
	// Stored negated, then overwritten: codes left from the first Add would
	// rank the rows upside down.
	seeds = append(seeds, seed{3, 2, 4, floatBytes(
		1, 2, 3,
		1, 2, 3, -1, -2, -3, 3, 2, 1, 0.5, 0.5, 0.5, 2, 4, 6.5, -3, 1, 0,
	)})
	// A query whose products overflow float32 (rows in range, the query
	// not): both rows score +Inf and tie, so the lower id wins.
	seeds = append(seeds, seed{2, 1, 0, floatBytes(
		1e30, 1e30,
		1e10, 1e10, 2e10, 2e10,
	)})
	// The top rows are the ones keep rejects (ids divisible by 3).
	seeds = append(seeds, seed{2, 2, 1, floatBytes(
		1, 1,
		0.9, 1.1, 5, 5, 1, 0.99, 1, 1, 4, 4, 0.5, 0.7, 6, 6, 0.2, 0.1,
	)})
	return seeds
}

// FuzzPrefilterScan holds the prefiltered scan to the full sort over
// every row, byte for byte, in both search modes. The first dim floats
// of data are the query, the rest are rows; flags bit 0 adds a keep
// filter, bit 1 duplicates every third row, bit 2 first stores every row
// negated and then overwrites it under the same id.
func FuzzPrefilterScan(f *testing.F) {
	for _, s := range prefilterSeeds() {
		f.Add(s.dim, s.k, s.flags, s.data)
	}
	f.Fuzz(func(t *testing.T, dim8, k8, flags uint8, data []byte) {
		dim := int(dim8 % 40)
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if dim == 0 || len(vals) < 2*dim {
			return
		}
		c := searchCase{q: vals[:dim]}
		for i := 0; (i+2)*dim <= len(vals); i++ {
			row := Vector(vals[(i+1)*dim : (i+2)*dim])
			if flags&2 != 0 && i%3 == 2 {
				row = c.vecs[i-1]
			}
			c.ids = append(c.ids, uint64(i+1))
			c.vecs = append(c.vecs, row)
		}
		k := int(k8)
		var keep func(uint64) bool
		if flags&1 != 0 {
			keep = func(id uint64) bool { return id%3 != 0 }
		}
		idx := NewFlat()
		if flags&4 != 0 {
			for i, id := range c.ids {
				neg := make(Vector, dim)
				for j, x := range c.vecs[i] {
					neg[j] = -x
				}
				if err := idx.Add(id, neg); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, id := range c.ids {
			if err := idx.Add(id, c.vecs[i]); err != nil {
				t.Fatal(err)
			}
		}
		plain, err := idx.SearchFiltered(context.Background(), c.q, k, keep)
		if err != nil {
			t.Fatal(err)
		}
		if want := fullSortSearch(c.ids, c.vecs, c.q, k, false, keep); !sameResults(plain, want) {
			t.Fatalf("SearchFiltered k %d\n got %v\nwant %v", k, plain, want)
		}
		cosine, err := idx.scan(context.Background(), c.q, k, true, keep)
		if err != nil {
			t.Fatal(err)
		}
		if want := fullSortSearch(c.ids, c.vecs, c.q, k, true, keep); !sameResults(cosine, want) {
			t.Fatalf("cosine scan k %d\n got %v\nwant %v", k, cosine, want)
		}
	})
}

// Adversarial rows in bulk: many rows whose quantization errors point
// apart, scored against queries they were built for, at several k.
func TestPrefilterAdversarialRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3702))
	for trial := 0; trial < 60; trial++ {
		dim := 2 + rng.Intn(40)
		c := searchCase{q: make(Vector, dim)}
		for j := range c.q {
			c.q[j] = float32(rng.NormFloat64())
		}
		c.q[0] *= 1e-3
		for i, row := range adversarialRows(rng, c.q, 300+rng.Intn(300)) {
			c.ids = append(c.ids, uint64(i+1))
			c.vecs = append(c.vecs, row)
		}
		keep := func(id uint64) bool { return id%4 != 1 }
		for _, k := range []int{1, 3, 10, 50} {
			plain, filtered, cosine := c.searches(t, k, keep)
			if want := fullSortSearch(c.ids, c.vecs, c.q, k, false, nil); !sameResults(plain, want) {
				t.Fatalf("trial %d k %d: Search\n got %v\nwant %v", trial, k, plain, want)
			}
			if want := fullSortSearch(c.ids, c.vecs, c.q, k, false, keep); !sameResults(filtered, want) {
				t.Fatalf("trial %d k %d: SearchFiltered\n got %v\nwant %v", trial, k, filtered, want)
			}
			if want := fullSortSearch(c.ids, c.vecs, c.q, k, true, keep); !sameResults(cosine, want) {
				t.Fatalf("trial %d k %d: cosine scan\n got %v\nwant %v", trial, k, cosine, want)
			}
		}
	}
}

// The prefilter re-scores a handful of rows on a smooth distribution, and
// every row when it cannot bound the query; SearchCosineByID answers what
// a cosine scan answers for a copy of the stored row.
func TestPrefilterRescoresFewRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3703))
	c := randomCase(rng, 5000, 32, 0, 0)
	f := c.flat(t)
	before := f.Rescored()
	q, _ := f.Get(c.ids[7])
	want, err := f.scan(context.Background(), q, 10, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := f.Rescored() - before; n < 10 || n > 200 {
		t.Fatalf("re-scored %d of 5000 rows for k=10", n)
	}
	got, ok, err := f.SearchCosineByID(context.Background(), c.ids[7], 10, nil)
	if !ok || err != nil || !sameResults(got, want) {
		t.Fatalf("SearchCosineByID = %v, %v, %v; want %v", got, ok, err, want)
	}
	if _, ok, _ := f.SearchCosineByID(context.Background(), 1<<40, 10, nil); ok {
		t.Fatal("SearchCosineByID found an id that was never stored")
	}
	q[3] = float32(math.Inf(1))
	before = f.Rescored()
	f.Search(q, 10)
	if n := f.Rescored() - before; n != 5000 {
		t.Fatalf("a non-finite query re-scored %d of 5000 rows", n)
	}
}

// Scans share the pooled scratch and read the codes while Add rewrites
// them: readers racing a writer that appends and overwrites rows (run
// with -race). Once the writer is done, every mode matches the full sort.
func TestPrefilterConcurrentScansAndAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(3704))
	c := randomCase(rng, 1200, 24, 0, 0)
	f := NewFlat()
	for i := 0; i < 600; i++ {
		if err := f.Add(c.ids[i], c.vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				id := c.ids[(w*150+i)%600]
				res, ok, err := f.SearchCosineByID(context.Background(), id, 10, nil)
				if !ok || err != nil || len(res) != 10 {
					t.Errorf("reader %d: %d results, %v, %v", w, len(res), ok, err)
					return
				}
				for j := 1; j < len(res); j++ {
					if worse(res[j-1], res[j]) {
						t.Errorf("reader %d: results out of order: %v", w, res)
						return
					}
				}
			}
		}(w)
	}
	for i := 600; i < 1200; i++ {
		if err := f.Add(c.ids[i], c.vecs[i]); err != nil {
			t.Fatal(err)
		}
		if j := rng.Intn(i); i%3 == 0 { // overwrite an existing row with itself, re-coding it
			if err := f.Add(c.ids[j], c.vecs[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	for _, k := range []int{1, 10, 1300} {
		plain, filtered, cosine := c.searches(t, k, nil)
		got := [3][]Result{f.Search(c.q, k), nil, nil}
		got[1], _ = f.SearchFiltered(context.Background(), c.q, k, nil)
		got[2], _ = f.scan(context.Background(), c.q, k, true, nil)
		for m, want := range [3][]Result{plain, filtered, cosine} {
			if !sameResults(got[m], want) {
				t.Fatalf("k %d mode %d: after concurrent adds\n got %v\nwant %v", k, m, got[m], want)
			}
		}
	}
}
