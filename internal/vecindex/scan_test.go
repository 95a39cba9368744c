package vecindex

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// --- references -----------------------------------------------------------

// refDotLanes states the kernel contract as plainly as it can be stated:
// element i into lane i%8, products rounded before they are added, lanes
// reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
func refDotLanes(q, row []float32) float32 {
	var l [8]float32
	for i := range q {
		l[i%8] += float32(q[i] * row[i])
	}
	return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

// oldDotContig and oldTopKRows are the scan this package shipped until
// PR 18, kept as the differential reference: a four-lane dot product
// called through three closures per row, admission on strictly greater
// score.
func oldDotContig(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	b = b[:len(a)]
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

func oldTopKRows(n, k int, idAt func(int) uint64, scoreAt func(int) float32, keepRow func(int) bool) []Result {
	if k <= 0 {
		return nil
	}
	out := make([]Result, 0, k+1)
	for i := 0; i < n; i++ {
		if !keepRow(i) {
			continue
		}
		s := scoreAt(i)
		if len(out) < k {
			out = append(out, Result{ID: idAt(i), Score: s})
			if len(out) == k {
				sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
			}
			continue
		}
		if s > out[k-1].Score {
			out[k-1] = Result{ID: idAt(i), Score: s}
			for j := k - 1; j > 0 && out[j].Score > out[j-1].Score; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	return out
}

func oldSearch(ids []uint64, vecs []Vector, q Vector, k int, cosine bool, keep func(uint64) bool) []Result {
	qn := Norm(q)
	if cosine && qn == 0 {
		return nil
	}
	return oldTopKRows(len(ids), k,
		func(i int) uint64 { return ids[i] },
		func(i int) float32 {
			d := oldDotContig(q, vecs[i])
			if !cosine {
				return d
			}
			n := Norm(vecs[i])
			if n == 0 {
				return 0
			}
			return d / (qn * n)
		},
		func(i int) bool { return keep == nil || keep(ids[i]) })
}

// fullSortSearch is the specification of every search in the package:
// score each kept row, sort all of them under the selector's total order,
// cut at k.
func fullSortSearch(ids []uint64, vecs []Vector, q Vector, k int, cosine bool, keep func(uint64) bool) []Result {
	qn := Norm(q)
	if k <= 0 || (cosine && qn == 0) {
		return nil
	}
	var all []Result
	for i, id := range ids {
		if keep != nil && !keep(id) {
			continue
		}
		s := refDotLanes(q, vecs[i])
		if cosine {
			if n := Norm(vecs[i]); n == 0 {
				s = 0
			} else {
				s /= qn * n
			}
		}
		all = append(all, Result{ID: id, Score: s})
	}
	sort.Slice(all, func(a, b int) bool { return worse(all[b], all[a]) })
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// sameFloat is bit equality, except that any NaN equals any NaN: the
// payload of a NaN depends on the operand order of the instruction that
// produced it and is not part of the kernel contract.
func sameFloat(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameFloat(a[i].Score, b[i].Score) {
			return false
		}
	}
	return true
}

// --- kernel -----------------------------------------------------------------

// specials are the values a component is drawn from now and then.
var specials = []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1e-30, 1, -1}

func randomComponent(rng *rand.Rand, special float64) float32 {
	if rng.Float64() < special {
		return specials[rng.Intn(len(specials))]
	}
	return float32(rng.NormFloat64())
}

// checkKernels runs every kernel body this build has on one input and
// fails unless each row equals the lane-by-lane reference.
func checkKernels(t testing.TB, q, rows []float32, n int) {
	t.Helper()
	dim := len(q)
	want := make([]float32, n)
	for r := range want {
		want[r] = refDotLanes(q, rows[r*dim:(r+1)*dim])
	}
	for name, kernel := range kernelBodies() {
		got := make([]float32, n)
		kernel(got, q, rows)
		for r := range got {
			if !sameFloat(got[r], want[r]) {
				t.Fatalf("%s: dim %d row %d: got %x (%v), want %x (%v)", name, dim, r,
					math.Float32bits(got[r]), got[r], math.Float32bits(want[r]), want[r])
			}
		}
	}
}

func TestDotRowsBodiesAgreeBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for dim := 0; dim <= 70; dim++ {
		for _, special := range []float64{0, 0.15} {
			n := 1 + rng.Intn(9)
			q := make([]float32, dim)
			for i := range q {
				q[i] = randomComponent(rng, special)
			}
			rows := make([]float32, n*dim)
			for i := range rows {
				rows[i] = randomComponent(rng, special)
			}
			checkKernels(t, q, rows, n)
		}
	}
}

func TestDotRowsNeverNegativeZero(t *testing.T) {
	// Every product is -0: the lanes start at +0, so the sum is +0 in both
	// bodies (the masked tail of the assembly relies on this).
	for dim := 1; dim <= 17; dim++ {
		q, row := make([]float32, dim), make([]float32, dim)
		for i := range q {
			q[i], row[i] = 1, float32(math.Copysign(0, -1))
		}
		for name, kernel := range kernelBodies() {
			got := []float32{1}
			kernel(got, q, row)
			if math.Float32bits(got[0]) != 0 {
				t.Fatalf("%s: dim %d: got %x, want +0", name, dim, math.Float32bits(got[0]))
			}
		}
	}
}

func FuzzDotRows(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 64, 0, 0, 160, 64, 0, 0, 192, 64})
	f.Add(uint8(9), make([]byte, 4*9*3))
	f.Add(uint8(1), []byte{0, 0, 192, 127, 0, 0, 128, 127})
	f.Fuzz(func(t *testing.T, dim8 uint8, data []byte) {
		dim := int(dim8 % 71)
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if dim == 0 || len(vals) < 2*dim {
			return
		}
		n := len(vals)/dim - 1
		checkKernels(t, vals[:dim], vals[dim:], n)
	})
}

// --- search -------------------------------------------------------------------

type searchCase struct {
	ids  []uint64
	vecs []Vector
	q    Vector
}

func randomCase(rng *rand.Rand, n, dim int, special, zeroRows float64) searchCase {
	c := searchCase{q: make(Vector, dim)}
	for i := range c.q {
		c.q[i] = randomComponent(rng, special)
	}
	for _, id := range rng.Perm(n) {
		v := make(Vector, dim)
		if rng.Float64() >= zeroRows {
			for j := range v {
				v[j] = randomComponent(rng, special)
			}
		}
		c.ids = append(c.ids, uint64(id+1))
		c.vecs = append(c.vecs, v)
	}
	return c
}

func (c searchCase) flat(t testing.TB) *FlatIndex {
	f := NewFlat()
	for i, id := range c.ids {
		if err := f.Add(id, c.vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// searches runs the three flat entry points on one case.
func (c searchCase) searches(t testing.TB, k int, keep func(uint64) bool) (plain, filtered, cosine []Result) {
	f := c.flat(t)
	plain = f.Search(c.q, k)
	filtered, err := f.SearchFiltered(context.Background(), c.q, k, keep)
	if err != nil {
		t.Fatal(err)
	}
	cosine, err = f.SearchCosineFiltered(context.Background(), c.q, k, keep)
	if err != nil {
		t.Fatal(err)
	}
	return plain, filtered, cosine
}

// The scan against its specification: dims 1–70 (the scan crosses block
// boundaries at n > 256), NaN and ±Inf components, zero-norm rows, keep
// filters, k from 1 past n.
func TestScanMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1801))
	for dim := 1; dim <= 70; dim++ {
		n := 1 + rng.Intn(600)
		c := randomCase(rng, n, dim, []float64{0, 0.05}[dim%2], 0.1)
		mod := uint64(2 + rng.Intn(3))
		keep := func(id uint64) bool { return id%mod != 0 }
		for _, k := range []int{1, 1 + rng.Intn(12), n, n + 5} {
			plain, filtered, cosine := c.searches(t, k, keep)
			if want := fullSortSearch(c.ids, c.vecs, c.q, k, false, nil); !sameResults(plain, want) {
				t.Fatalf("dim %d n %d k %d: Search\n got %v\nwant %v", dim, n, k, plain, want)
			}
			if want := fullSortSearch(c.ids, c.vecs, c.q, k, false, keep); !sameResults(filtered, want) {
				t.Fatalf("dim %d n %d k %d: SearchFiltered\n got %v\nwant %v", dim, n, k, filtered, want)
			}
			if want := fullSortSearch(c.ids, c.vecs, c.q, k, true, keep); !sameResults(cosine, want) {
				t.Fatalf("dim %d n %d k %d: SearchCosineFiltered\n got %v\nwant %v", dim, n, k, cosine, want)
			}
		}
	}
}

// The scan against the implementation it replaced. The old kernel summed
// four lanes, this one eight, so scores agree to rounding, not to the bit;
// on continuous data (no ties at the k boundary) the neighbours and their
// order are the same.
func TestScanMatchesOldImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(1802))
	for dim := 1; dim <= 70; dim += 3 {
		n := 300 + rng.Intn(500)
		c := randomCase(rng, n, dim, 0, 0.02)
		keep := func(id uint64) bool { return id%5 != 0 }
		for _, k := range []int{1, 11, n + 1} {
			_, filtered, cosine := c.searches(t, k, keep)
			for name, pair := range map[string][2][]Result{
				"SearchFiltered":       {filtered, oldSearch(c.ids, c.vecs, c.q, k, false, keep)},
				"SearchCosineFiltered": {cosine, oldSearch(c.ids, c.vecs, c.q, k, true, keep)},
			} {
				got, want := pair[0], pair[1]
				if len(got) != len(want) {
					t.Fatalf("dim %d k %d %s: %d results, old %d", dim, k, name, len(got), len(want))
				}
				for i := range got {
					tol := 1e-5 * (1 + math.Abs(float64(want[i].Score))) * math.Sqrt(float64(dim))
					if math.Abs(float64(got[i].Score-want[i].Score)) > tol {
						t.Fatalf("dim %d k %d %s: rank %d score %v, old %v", dim, k, name, i, got[i].Score, want[i].Score)
					}
					// Zero-norm rows all score exactly 0 and tie; the old code
					// broke such ties by slab order, so compare IDs only off ties.
					tie := (i > 0 && want[i-1].Score == want[i].Score) || (i+1 < len(want) && want[i+1].Score == want[i].Score)
					if !tie && i < len(want)-1 && got[i].ID != want[i].ID {
						t.Fatalf("dim %d k %d %s: rank %d id %d, old %d", dim, k, name, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
	}
}

// Which of several equal-scored rows survives at the k boundary must not
// depend on insertion order: duplicates and zero-norm rows straddle k,
// and the same rows go in forwards, backwards and shuffled.
func TestSelectionIndependentOfInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1803))
	const dim = 5
	base := []Vector{{1, 2, 3, 4, 5}, {0, 0, 0, 0, 0}, {-1, 0, 1, 0, 2}, {2, 2, 2, 2, 2}}
	var ids []uint64
	var vecs []Vector
	for i := 0; i < 40; i++ { // ten copies of each base row under distinct IDs
		ids = append(ids, uint64(100+i))
		vecs = append(vecs, base[i%len(base)])
	}
	q := Vector{1, 1, 1, 1, 1}
	orders := [][]int{rng.Perm(len(ids)), rng.Perm(len(ids)), nil, nil}
	for i := range ids {
		orders[2] = append(orders[2], i)
		orders[3] = append(orders[3], len(ids)-1-i)
	}
	keep := func(id uint64) bool { return id != 104 }
	for _, k := range []int{1, 3, 7, 10, 15, 25, 39, 40, 41} {
		var first [5][]Result
		for oi, order := range orders {
			c := searchCase{q: q}
			for _, i := range order {
				c.ids = append(c.ids, ids[i])
				c.vecs = append(c.vecs, vecs[i])
			}
			plain, filtered, cosine := c.searches(t, k, keep)
			ivf, err := BuildIVF(c.ids, c.vecs, IVFOptions{NList: 1, NProbe: 1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			quant := NewQuantized()
			for i, id := range c.ids {
				if err := quant.Add(id, c.vecs[i]); err != nil {
					t.Fatal(err)
				}
			}
			got := [5][]Result{plain, filtered, cosine, ivf.Search(q, k), quant.Search(q, k)}
			if oi == 0 {
				first = got
				if want := fullSortSearch(ids, vecs, q, k, false, nil); !reflect.DeepEqual(plain, want) {
					t.Fatalf("k %d: Search = %v, want %v", k, plain, want)
				}
				continue
			}
			for j, name := range []string{"Search", "SearchFiltered", "SearchCosineFiltered", "IVF", "Quantized"} {
				if !reflect.DeepEqual(got[j], first[j]) {
					t.Fatalf("k %d order %d: %s depends on insertion order\n got %v\nwant %v", k, oi, name, got[j], first[j])
				}
			}
		}
	}
}

type countingCtx struct {
	context.Context
	polls, cancelAfter int
}

func (c *countingCtx) Done() <-chan struct{} { return make(chan struct{}) }
func (c *countingCtx) Err() error {
	if c.polls++; c.polls > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

func TestScanPollsContextOncePerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1804))
	c := randomCase(rng, 3*scanBlock+1, 8, 0, 0)
	f := c.flat(t)
	ctx := &countingCtx{Context: context.Background(), cancelAfter: 1 << 30}
	if _, err := f.SearchFiltered(ctx, c.q, 5, nil); err != nil {
		t.Fatal(err)
	}
	if ctx.polls != 4 {
		t.Fatalf("ctx polled %d times over 4 blocks", ctx.polls)
	}
	kept := 0
	ctx = &countingCtx{Context: context.Background(), cancelAfter: 2}
	res, err := f.SearchCosineFiltered(ctx, c.q, 5, func(uint64) bool { kept++; return true })
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled scan returned %v, %v", res, err)
	}
	if kept > 2*scanBlock {
		t.Fatalf("cancelled scan still filtered %d rows", kept)
	}
}

func BenchmarkDotRows(b *testing.B) {
	const n, dim = 20824, 32
	rng := rand.New(rand.NewSource(1))
	q, rows, dst := make([]float32, dim), make([]float32, n*dim), make([]float32, scanBlock)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	for name, kernel := range kernelBodies() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < n; lo += scanBlock {
					hi := min(lo+scanBlock, n)
					kernel(dst[:hi-lo], q, rows[lo*dim:hi*dim])
				}
			}
		})
	}
}
