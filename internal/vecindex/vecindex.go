// Package vecindex implements the vector index behind the embedding
// service (Fig 1 "Vector Index"): exact (flat) k-nearest-neighbour search
// and an IVF (inverted-file) approximate index built with k-means
// clustering. The IVF nprobe parameter is the price/performance knob the
// paper's semantic-annotation section calls out: fewer probes are cheaper
// but recall drops (experiment E11 measures the curve).
//
// # The scan kernel
//
// Every exact search is one blocked scan (FlatIndex.scan): dotRows scores
// scanBlock consecutive rows of the slab per call, and a selection pass
// over that block keeps the best k. dotRows(dst, q, rows) sets dst[r] to
// the inner product of q and row r, computed as follows, and every body
// of the kernel computes exactly this:
//
//   - eight float32 lanes, all starting at +0; element i of the row is
//     multiplied with q[i] and the product, rounded to float32, is added
//     to lane i%8 in order of increasing i (multiply, round, add — never
//     a fused multiply-add);
//   - the dim%8 trailing elements go to lanes 0..dim%8-1 the same way;
//   - the lanes are summed as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
//
// There are two bodies: dotRowsGo on every platform, and dotRowsAVX2 on
// amd64 hosts that report AVX2 (checked once, at init). Because both
// follow the contract above they agree bit for bit on every input whose
// result is not NaN, and return NaN together otherwise (a NaN's payload
// is not part of the contract), so which body ran cannot be observed in
// any search result; TestDotRowsBodiesAgreeBitForBit and FuzzDotRows hold
// them to it. The purego build tag forces the Go body.
//
// # The training step kernel
//
// The same package holds the one other place the repository drops to
// assembly: TriDot and TriUpdate, the two halves of the embedding
// trainer's DistMult step (package embedding states what a step is).
// TriDot(h, r, t) is Σ (h[i]·r[i])·t[i] under the scan kernel's rules —
// each of the two products rounded to float32, lane i%8, the same
// reduction tree, no fused multiply-add. TriUpdate(h, r, t, gf, decay)
// sets, per element and from the element's old values,
//
//	h' = h·decay − (gf·r)·t,  r' = r·decay − (gf·h)·t,  t' = t·decay − (gf·h)·r
//
// with every product and difference rounded to float32. The rows have
// equal length; r is disjoint from h and t, and h and t are either
// disjoint or the same row — then each element is read before any row is
// written and t' is the value that stays. triDotGo/triUpdateGo are the
// contract, triDotAVX2/triUpdateAVX2 run where dotRowsAVX2 does, and
// TestTriStepBodiesAgreeBitForBit and FuzzTriStep hold the pairs
// bit-identical (NaN for NaN), aliasing included.
//
// Results are ranked under one total order everywhere in the package
// (flat, IVF, quantized): score descending, a NaN score after every
// number, ties by ascending ID — see worse.
package vecindex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"saga/internal/topk"
)

// Vector is a dense float32 embedding.
type Vector []float32

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b Vector) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the L2 norm.
func Norm(a Vector) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Normalize scales a to unit length in place and returns it. Zero vectors
// are returned unchanged.
func Normalize(a Vector) Vector {
	n := Norm(a)
	if n == 0 {
		return a
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return a
}

// Cosine returns the cosine similarity of two vectors (0 when either is a
// zero vector).
func Cosine(a, b Vector) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// L2Distance returns the Euclidean distance.
func L2Distance(a, b Vector) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return float32(math.Sqrt(float64(s)))
}

// Result is one kNN hit; higher Score = more similar (inner product).
type Result struct {
	ID    uint64
	Score float32
}

// Index is the interface shared by the flat and IVF implementations.
type Index interface {
	// Add inserts a vector under id. Duplicate IDs replace the old vector.
	Add(id uint64, v Vector) error
	// Search returns the k most similar vectors by inner product, highest
	// first.
	Search(q Vector, k int) []Result
	// Len returns the number of stored vectors.
	Len() int
	// Dim returns the vector dimensionality (0 while empty).
	Dim() int
}

// FlatIndex is an exact brute-force index. Safe for concurrent use.
// Vectors are stored in one contiguous float32 slab (row i occupies
// data[i*dim:(i+1)*dim]) so a full scan is sequential memory traversal
// through the dotRows kernel, not a pointer chase through per-vector
// allocations.
type FlatIndex struct {
	mu      sync.RWMutex
	dim     int
	ids     []uint64
	data    []float32 // len(ids)*dim, row-major
	norms   []float32 // L2 norm per row, maintained on Add for cosine scans
	pos     map[uint64]int
	version uint64 // bumped on every Add; result caches key on it
}

// NewFlat returns an empty exact index.
func NewFlat() *FlatIndex {
	return &FlatIndex{pos: make(map[uint64]int)}
}

// NewFlatFromRows returns an exact index whose slab is rows: row i, under
// ids[i], is rows[i*dim:(i+1)*dim] with dim = len(rows)/len(ids). The
// index takes both slices over — the bulk load for a caller that already
// holds its vectors as one matrix, where an Add loop would copy every row
// and regrow the slab as it went.
func NewFlatFromRows(ids []uint64, rows []float32) (*FlatIndex, error) {
	if len(ids) == 0 || len(rows) == 0 || len(rows)%len(ids) != 0 {
		return nil, fmt.Errorf("vecindex: %d floats do not make %d equal non-empty rows", len(rows), len(ids))
	}
	f := &FlatIndex{
		dim: len(rows) / len(ids), ids: ids, data: rows,
		norms: make([]float32, len(ids)), pos: make(map[uint64]int, len(ids)), version: 1,
	}
	for i, id := range ids {
		if _, dup := f.pos[id]; dup {
			return nil, fmt.Errorf("vecindex: duplicate id %d", id)
		}
		f.pos[id] = i
		f.norms[i] = Norm(rows[i*f.dim : (i+1)*f.dim])
	}
	return f, nil
}

// Add implements Index.
func (f *FlatIndex) Add(id uint64, v Vector) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dim == 0 {
		f.dim = len(v)
	}
	if len(v) != f.dim {
		return fmt.Errorf("vecindex: dim mismatch: got %d want %d", len(v), f.dim)
	}
	f.version++
	if i, ok := f.pos[id]; ok {
		copy(f.data[i*f.dim:(i+1)*f.dim], v)
		f.norms[i] = Norm(v)
		return nil
	}
	f.pos[id] = len(f.ids)
	f.ids = append(f.ids, id)
	f.data = append(f.data, v...)
	f.norms = append(f.norms, Norm(v))
	return nil
}

// Version returns a counter that changes whenever the index contents
// change. Two calls returning the same value bracket a window in which
// every Search result was reproducible, so derived result caches can use
// it as their staleness watermark (the same contract kg.Graph.LastSeq
// provides for graph-derived snapshots).
func (f *FlatIndex) Version() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.version
}

// Get returns the stored vector for id.
func (f *FlatIndex) Get(id uint64) (Vector, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, ok := f.pos[id]
	if !ok {
		return nil, false
	}
	return append(Vector(nil), f.data[i*f.dim:(i+1)*f.dim]...), true
}

// Search implements Index.
func (f *FlatIndex) Search(q Vector, k int) []Result {
	res, _ := f.scan(context.Background(), q, k, false, nil)
	return res
}

// SearchFiltered is Search restricted to IDs accepted by keep (nil = all)
// and abandoned with ctx's error once ctx is done.
func (f *FlatIndex) SearchFiltered(ctx context.Context, q Vector, k int, keep func(uint64) bool) ([]Result, error) {
	return f.scan(ctx, q, k, false, keep)
}

// SearchCosineFiltered ranks by cosine similarity instead of raw inner
// product, restricted to IDs accepted by keep (nil = all). Stored vectors
// need not be normalized: each row's score is its inner product with q
// scaled by the row's cached L2 norm and q's norm, so the ranking agrees
// with Cosine() regardless of how the vectors were scaled at Add time.
// Zero-norm rows score 0, matching Cosine; a zero-norm query has no
// neighbours.
func (f *FlatIndex) SearchCosineFiltered(ctx context.Context, q Vector, k int, keep func(uint64) bool) ([]Result, error) {
	return f.scan(ctx, q, k, true, keep)
}

// scanBlock is how many rows one kernel call scores: 1 KB of scores, so
// the selection pass reads them back from L1, and the unit at which a
// scan polls its context.
const scanBlock = 256

// scan is the one exact search: the kernel fills a block of inner
// products, then one pass over the block applies the cosine scaling, the
// heap's running threshold and, for the few rows that survive it,
// the keep filter. keep therefore sees only rows that would otherwise
// enter the result.
func (f *FlatIndex) scan(ctx context.Context, q Vector, k int, cosine bool, keep func(uint64) bool) ([]Result, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(q) != f.dim || f.dim == 0 || k <= 0 {
		return nil, nil
	}
	var qn float32
	if cosine {
		if qn = Norm(q); qn == 0 {
			return nil, nil
		}
	}
	n, dim := len(f.ids), f.dim
	sel := topk.New(k, n, worse)
	done := ctx.Done()
	var buf [scanBlock]float32
	for lo := 0; lo < n; lo += scanBlock {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		hi := lo + scanBlock
		if hi > n {
			hi = n
		}
		scores := buf[:hi-lo]
		dotRows(scores, q, f.data[lo*dim:hi*dim])
		ids, norms := f.ids[lo:hi], f.norms[lo:hi]
		for i, s := range scores {
			if cosine {
				if rn := norms[i]; rn == 0 {
					s = 0
				} else {
					s /= qn * rn
				}
			}
			if below(&sel, s) {
				continue
			}
			if r := (Result{ID: ids[i], Score: s}); sel.Admits(r) && (keep == nil || keep(r.ID)) {
				sel.Push(r)
			}
		}
	}
	return sel.Sorted(), nil
}

// Len implements Index.
func (f *FlatIndex) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.ids)
}

// Dim implements Index.
func (f *FlatIndex) Dim() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.dim
}

// topK selects the k best rows of a slice-of-vectors layout (the IVF
// candidate path). Rows whose dimensionality does not match q are skipped.
func topK(q Vector, ids []uint64, vecs []Vector, k int, keep func(uint64) bool) []Result {
	if k <= 0 {
		return nil
	}
	sel := topk.New(k, len(ids), worse)
	for i, id := range ids {
		if len(vecs[i]) != len(q) || (keep != nil && !keep(id)) {
			continue
		}
		if r := (Result{ID: id, Score: Dot(q, vecs[i])}); !below(&sel, r.Score) && sel.Admits(r) {
			sel.Push(r)
		}
	}
	return sel.Sorted()
}

// below is the cheap test every scan loop runs first: a full heap turns
// away any score strictly below its worst without a call through the
// order. (False if either score is NaN; Admits decides those, and ties.)
func below(sel *topk.Heap[Result], score float32) bool {
	return sel.Full() && score < sel.Worst().Score
}

// worse reports whether a ranks after b under the one total order every
// index in the package selects and sorts by: higher score first, a NaN
// score after every number, ties by ascending ID. Which of several
// equal-scored rows survives at the k boundary is therefore a function of
// the rows, not of the order they were scanned in.
func worse(a, b Result) bool {
	switch {
	case a.Score < b.Score:
		return true
	case a.Score > b.Score:
		return false
	case a.Score == b.Score:
		return a.ID > b.ID
	}
	// At least one score is NaN.
	if an, bn := a.Score != a.Score, b.Score != b.Score; an != bn {
		return an
	}
	return a.ID > b.ID
}

// IVFIndex is an inverted-file approximate index: vectors are assigned to
// the nearest of nlist centroids at build time; queries scan only the
// nprobe nearest lists. Build it once with BuildIVF; Search is safe for
// concurrent use afterwards.
type IVFIndex struct {
	dim       int
	centroids []Vector
	lists     [][]int // centroid -> indexes into ids/vecs
	ids       []uint64
	vecs      []Vector
	nprobe    int
}

// IVFOptions configure BuildIVF.
type IVFOptions struct {
	// NList is the number of clusters; default sqrt(n) clamped to [1,256].
	NList int
	// NProbe is the default number of lists scanned per query; default 4.
	NProbe int
	// Seed makes clustering reproducible.
	Seed int64
}

// BuildIVF clusters the given vectors and returns the immutable index.
func BuildIVF(ids []uint64, vecs []Vector, opts IVFOptions) (*IVFIndex, error) {
	if len(ids) != len(vecs) {
		return nil, errors.New("vecindex: ids/vecs length mismatch")
	}
	if len(vecs) == 0 {
		return nil, errors.New("vecindex: empty build set")
	}
	dim := len(vecs[0])
	for _, v := range vecs {
		if len(v) != dim {
			return nil, errors.New("vecindex: inconsistent dimensions")
		}
	}
	nlist := opts.NList
	if nlist <= 0 {
		nlist = int(math.Sqrt(float64(len(vecs))))
	}
	if nlist < 1 {
		nlist = 1
	}
	if nlist > 256 {
		nlist = 256
	}
	if nlist > len(vecs) {
		nlist = len(vecs)
	}
	nprobe := opts.NProbe
	if nprobe <= 0 {
		nprobe = 4
	}
	if nprobe > nlist {
		nprobe = nlist
	}

	centroids := kmeans(vecs, nlist, rand.New(rand.NewSource(opts.Seed)))
	lists := make([][]int, len(centroids))
	for i, v := range vecs {
		c := nearestCentroid(v, centroids)
		lists[c] = append(lists[c], i)
	}
	idsCp := append([]uint64(nil), ids...)
	vecsCp := make([]Vector, len(vecs))
	for i, v := range vecs {
		vecsCp[i] = append(Vector(nil), v...)
	}
	return &IVFIndex{dim: dim, centroids: centroids, lists: lists, ids: idsCp, vecs: vecsCp, nprobe: nprobe}, nil
}

// Add is unsupported on the immutable IVF index.
func (ix *IVFIndex) Add(id uint64, v Vector) error {
	return errors.New("vecindex: IVF index is immutable; rebuild to add vectors")
}

// Len implements Index.
func (ix *IVFIndex) Len() int { return len(ix.ids) }

// Dim implements Index.
func (ix *IVFIndex) Dim() int { return ix.dim }

// NList returns the number of clusters.
func (ix *IVFIndex) NList() int { return len(ix.centroids) }

// Search implements Index with the index's default nprobe.
func (ix *IVFIndex) Search(q Vector, k int) []Result {
	return ix.SearchNProbe(q, k, ix.nprobe)
}

// SearchNProbe searches scanning the given number of nearest lists.
func (ix *IVFIndex) SearchNProbe(q Vector, k, nprobe int) []Result {
	if k <= 0 || len(ix.ids) == 0 {
		return nil
	}
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > len(ix.centroids) {
		nprobe = len(ix.centroids)
	}
	// Rank centroids by distance to q.
	type cd struct {
		c int
		d float32
	}
	order := make([]cd, len(ix.centroids))
	for i, c := range ix.centroids {
		order[i] = cd{i, L2Distance(q, c)}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].d < order[b].d })

	var candIDs []uint64
	var candVecs []Vector
	for _, o := range order[:nprobe] {
		for _, idx := range ix.lists[o.c] {
			candIDs = append(candIDs, ix.ids[idx])
			candVecs = append(candVecs, ix.vecs[idx])
		}
	}
	return topK(q, candIDs, candVecs, k, nil)
}

// kmeansIters bounds kmeans' Lloyd iterations.
const kmeansIters = 10

// kmeans runs Lloyd's algorithm with k-means++ style seeding.
func kmeans(vecs []Vector, k int, rng *rand.Rand) []Vector {
	dim := len(vecs[0])
	centroids := make([]Vector, 0, k)
	// Seed: first centroid uniformly, rest weighted by squared distance.
	first := rng.Intn(len(vecs))
	centroids = append(centroids, append(Vector(nil), vecs[first]...))
	d2 := make([]float64, len(vecs))
	for len(centroids) < k {
		var sum float64
		for i, v := range vecs {
			d := L2Distance(v, centroids[nearestCentroid(v, centroids)])
			d2[i] = float64(d) * float64(d)
			sum += d2[i]
		}
		if sum == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, append(Vector(nil), vecs[rng.Intn(len(vecs))]...))
			continue
		}
		r := rng.Float64() * sum
		var acc float64
		pick := len(vecs) - 1
		for i := range vecs {
			acc += d2[i]
			if acc >= r {
				pick = i
				break
			}
		}
		centroids = append(centroids, append(Vector(nil), vecs[pick]...))
	}
	assign := make([]int, len(vecs))
	for it := 0; it < kmeansIters; it++ {
		changed := false
		for i, v := range vecs {
			c := nearestCentroid(v, centroids)
			if assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		// Recompute centroids.
		sums := make([]Vector, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make(Vector, dim)
		}
		for i, v := range vecs {
			c := assign[i]
			counts[c]++
			for j := range v {
				sums[c][j] += v[j]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // keep old centroid for empty cluster
			}
			inv := 1 / float32(counts[c])
			for j := range sums[c] {
				sums[c][j] *= inv
			}
			centroids[c] = sums[c]
		}
		if !changed && it > 0 {
			break
		}
	}
	return centroids
}

func nearestCentroid(v Vector, centroids []Vector) int {
	best := 0
	bestD := float32(math.MaxFloat32)
	for i, c := range centroids {
		d := L2Distance(v, c)
		if d < bestD {
			bestD = d
			best = i
		}
	}
	return best
}
