// Package vecindex implements the vector index behind the embedding
// service (Fig 1 "Vector Index"): exact (flat) k-nearest-neighbour search
// and an IVF (inverted-file) approximate index built with k-means
// clustering. The IVF nprobe parameter is the price/performance knob the
// paper's semantic-annotation section calls out: fewer probes are cheaper
// but recall drops (experiment E11 measures the curve).
//
// # The scan kernel
//
// Every exact search is one scan (FlatIndex.scan) whose scores come from
// dotRows: the rows the prefilter (below) cannot rule out, or, when it
// cannot bound the query, scanBlock consecutive rows of the slab per
// call. dotRows(dst, q, rows) sets dst[r] to the inner product of q and
// row r, computed as follows, and every body of the kernel computes
// exactly this:
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
// # The prefilter
//
// Beside the float32 slab a FlatIndex keeps an int8 copy of its rows, and
// a scan reads the copy first. Row i is coded with its own symmetric
// scale σ_i, the smallest float32 with 127·σ_i ≥ max|x_ij|, as codes
// c_ij = round(x_ij/σ_i) in [-127, 127]. Rows are zero-padded to an even
// dim and stored in groups of eight: for each pair of components, the
// sixteen bytes of the group's eight rows. The query is coded per scan
// the same way into int16, with one scale τ = max|q_j|/32767 and
// d_j = round(q_j/τ), two codes to a 32-bit word. The integer kernel
// (dotCodes) then forms A_i = Σ_j c_ij·d_j for eight rows at a time —
// one VPMADDWD of a group's widened pair against the broadcast word
// gives the eight rows' two-term sums, with no horizontal reduction.
// Its arithmetic is exact: each term is at most 127·32767 in magnitude,
// so A_i fits an int32 for dim ≤ maxCodedDim (516), and the Go and AVX2
// bodies return the same integers (TestDotCodesBodiesAgree).
//
// The bound. Write x_ij = σ_i·c_ij + ρ_ij and q_j = τ·d_j + η_j; the
// rounding leaves |ρ_ij| ≤ σ_i/2 and |η_j| ≤ τ/2 (plus the division's own
// rounding, 2^-46 and 2^-37 of a step). The exact inner product is
//
//	S_i = Σ q_j·x_ij = σ_i·τ·A_i + Σ q_j·ρ_ij + σ_i·Σ η_j·c_ij,
//
// so |S_i − σ_i·τ·A_i| ≤ σ_i·(‖q‖₁/2 + 127·dim·τ/2). The float32 score
// D_i that dotRows computes rounds each term at most m = ⌈dim/8⌉+4 times
// (the product, the lane adds, three reduction adds), so
// |D_i − S_i| ≤ γ_m·Σ|q_j·x_ij| + dim·2^-150 with γ_m = m·u/(1−m·u),
// u = 2^-24, Σ|q_j·x_ij| ≤ 127·σ_i·‖q‖₁, and the last term the products
// that underflow. Together
//
//	|D_i − σ_i·τ·A_i| ≤ σ_i·E + E₀,
//	E = ‖q‖₁/2 + 127·dim·τ/2 + 127·γ_m·‖q‖₁,  E₀ = dim·2^-150,
//
// which prepare computes in float64 with slack for float64's own
// rounding (E grows by 2^-30 of itself and 2^-40·127·‖q‖₁; E₀ is taken
// as dim·2^-148). For a cosine scan the score is fl(D_i / fl(qn·rn_i));
// dividing the interval by qn·rn_i, with the two roundings and
// |D_i|/(qn·rn_i) ≤ 1.001, adds 4u (and 2^-149 for a quotient that
// underflows), E₀/(qn·rn_i) is at most E₀·2^40/qn, and a row's factor
// becomes σ_i/rn_i (stored, like σ_i, per row). So every row gets an
// interval [lo_i, hi_i], one multiply-add from A_i, that holds its
// float32 score.
//
// Why the answer is exact. T is the k-th largest lo_i among the rows keep
// accepts. A row with hi_i < T scores below T, and k kept rows score at
// least T, so it ranks after k rows under worse and cannot be in the
// answer; every other kept row is re-scored by dotRows and the cosine
// division exactly as a full scan would score it, and the best k of
// those are selected by worse. The ids and score bits are therefore the
// full scan's. The scan finds T as it goes: a running threshold (the
// k-th largest lo of a kept row so far) only rises, so the rows whose hi
// falls below it on the way fall below T too; keep is called only on the
// rows that pass it. boundMask tests a block of rows against it at once;
// its Go and AVX2 bodies do the same float64 operations in the same
// order (no fused multiply-add), so they pass the same rows
// (TestBoundMaskBodiesAgree).
//
// When every row is re-scored. The bound holds where nothing overflows
// and no norm underflows: components finite with largest magnitude in
// [2^-40, 2^40]. A row outside that range (a zero row among them) has
// NaN factors, never sets T and is always re-scored; a query outside it
// (any non-finite component), or an index of dim > 516, skips the
// integer phase and re-scores every row, block by block, as the scan
// did before the prefilter. Rescored counts the rows scored in float32.
//
// # The training step kernel
//
// The same package holds the repository's other assembly: TriDot and
// TriUpdate, the two halves of the embedding trainer's DistMult step
// (package embedding states what a step is).
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
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

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

// FlatIndex is an exact brute-force index. Safe for concurrent use.
// Vectors are stored in one contiguous float32 slab (row i occupies
// data[i*dim:(i+1)*dim]) so a full scan is sequential memory traversal,
// not a pointer chase through per-vector allocations; beside the slab
// sit the rows' int8 codes, which the prefilter reads instead (see the
// package comment).
type FlatIndex struct {
	mu      sync.RWMutex
	dim     int
	ids     []uint64
	data    []float32 // len(ids)*dim, row-major
	norms   []float32 // L2 norm per row, maintained on Add for cosine scans
	pos     map[uint64]int
	version uint64 // bumped on every Add; result caches key on it

	// The prefilter's copy of the rows, nil when dim > maxCodedDim:
	// codes in groups of eight rows, and per row its code scale σ and
	// σ/norm (NaN for a row outside the tame range).
	codes           []int8
	scales, cscales []float32

	rescored atomic.Uint64 // rows scored in float32, summed over every scan
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
	coded := codedDim(f.dim)
	if coded {
		f.codes = make([]int8, (len(ids)+7)/8*8*(f.dim+f.dim&1))
		f.scales, f.cscales = make([]float32, len(ids)), make([]float32, len(ids))
	}
	for i, id := range ids {
		if _, dup := f.pos[id]; dup {
			return nil, fmt.Errorf("vecindex: duplicate id %d", id)
		}
		f.pos[id] = i
		f.norms[i] = Norm(rows[i*f.dim : (i+1)*f.dim])
		if coded {
			f.code(i)
		}
	}
	return f, nil
}

// Add inserts a vector under id. Duplicate IDs replace the old vector.
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
	i, ok := f.pos[id]
	if ok {
		copy(f.data[i*f.dim:(i+1)*f.dim], v)
		f.norms[i] = Norm(v)
	} else {
		i = len(f.ids)
		f.pos[id] = i
		f.ids = append(f.ids, id)
		f.data = append(f.data, v...)
		f.norms = append(f.norms, Norm(v))
	}
	if codedDim(f.dim) {
		if !ok {
			f.growCodes(i + 1)
		}
		f.code(i)
	}
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

// Search returns the k most similar vectors by inner product, highest
// first.
func (f *FlatIndex) Search(q Vector, k int) []Result {
	res, _ := f.scan(context.Background(), q, k, false, nil)
	return res
}

// SearchFiltered is Search restricted to IDs accepted by keep (nil = all)
// and abandoned with ctx's error once ctx is done.
func (f *FlatIndex) SearchFiltered(ctx context.Context, q Vector, k int, keep func(uint64) bool) ([]Result, error) {
	return f.scan(ctx, q, k, false, keep)
}

// SearchCosineByID ranks the vectors accepted by keep (nil = all) by
// cosine similarity to the stored vector of id, read in place under the
// scan's lock rather than copied out. Stored vectors need not be
// normalized: each row's score is its inner product with the query scaled
// by both cached L2 norms, so the ranking agrees with Cosine however the
// vectors were scaled at Add time, and zero-norm rows score 0. ok is
// false, and nothing is searched, when id is not stored.
func (f *FlatIndex) SearchCosineByID(ctx context.Context, id uint64, k int, keep func(uint64) bool) (res []Result, ok bool, err error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, ok := f.pos[id]
	if !ok {
		return nil, false, nil
	}
	res, err = f.scanLocked(ctx, f.data[i*f.dim:(i+1)*f.dim], k, true, keep)
	return res, true, err
}

// Rescored returns how many rows the index's searches have scored in
// float32 so far: each prefiltered scan's candidates, and every row of a
// scan the prefilter could not bound.
func (f *FlatIndex) Rescored() uint64 { return f.rescored.Load() }

// scanBlock is how many rows one kernel call scores: 1 KB of scores, so
// the pass that reads them back finds them in L1, and the unit at which a
// scan polls its context.
const scanBlock = 256

// scan is the one exact search; see the package comment. The integer
// kernel scores a block of rows and one pass over the block keeps the
// rows whose upper bound reaches the running threshold (the k-th largest
// lower bound of a kept row so far), calling keep on those alone; then
// only the rows whose upper bound reaches the final threshold are scored
// in float32 and selected. When the prefilter cannot bound the query,
// scanAll scores every row instead.
func (f *FlatIndex) scan(ctx context.Context, q Vector, k int, cosine bool, keep func(uint64) bool) ([]Result, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.scanLocked(ctx, q, k, cosine, keep)
}

// scanLocked is scan under the caller's read lock.
func (f *FlatIndex) scanLocked(ctx context.Context, q Vector, k int, cosine bool, keep func(uint64) bool) ([]Result, error) {
	if len(q) != f.dim || f.dim == 0 || k <= 0 {
		return nil, nil
	}
	var qn float32
	if cosine {
		if qn = Norm(q); qn == 0 {
			return nil, nil
		}
	}
	pf := prefilters.Get().(*prefilter)
	defer prefilters.Put(pf)
	if f.codes == nil || !pf.prepare(q, cosine, qn) {
		return f.scanAll(ctx, q, qn, k, cosine, keep)
	}
	n, dim, dp := len(f.ids), f.dim, f.dim+f.dim&1
	factors := f.scales
	if cosine {
		factors = f.cscales
	}
	pf.lows.Reset(k, n)
	pf.cands = pf.cands[:0]
	t := math.Inf(-1) // the running threshold on upper bounds
	done := ctx.Done()
	var acc [scanBlock]int32
	var mask [scanBlock / 64]uint64
	for lo := 0; lo < n; lo += scanBlock {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		hi := min(lo+scanBlock, n)
		g := (hi - lo + 7) &^ 7
		dotCodes(acc[:g], pf.qp, f.codes[lo*dp:(lo+g)*dp])
		ws, words := factors[lo:hi], mask[:(hi-lo+63)/64]
		boundMask(words, acc[:hi-lo], ws, &[4]float64{pf.alpha, pf.beta, pf.g0, t})
		for j, m := range words {
			for ; m != 0; m &= m - 1 {
				r := 64*j + bits.TrailingZeros64(m)
				l, u := pf.bounds(acc[r], ws[r])
				if u < t { // the threshold rose within the block
					continue
				}
				i := lo + r
				if keep != nil && !keep(f.ids[i]) {
					continue
				}
				if u != u { // outside the tame range
					u = math.Inf(1)
				} else if pf.lows.Admits(l) {
					pf.lows.Push(l)
					if pf.lows.Full() {
						t = pf.lows.Worst()
					}
				}
				pf.cands = append(pf.cands, cand{i: int32(i), hi: u})
			}
		}
	}
	sel := topk.New(k, len(pf.cands), worse)
	var s [1]float32
	rescored := 0
	for _, c := range pf.cands {
		if c.hi < t {
			continue
		}
		i := int(c.i)
		dotRows(s[:], q, f.data[i*dim:(i+1)*dim])
		if r := (Result{ID: f.ids[i], Score: scaled(s[0], cosine, qn, f.norms[i])}); sel.Admits(r) {
			sel.Push(r)
		}
		rescored++
	}
	f.rescored.Add(uint64(rescored))
	return sel.Sorted(), nil
}

// scanAll is the scan without the prefilter: dotRows scores each block of
// rows and one pass over it applies the cosine scaling, the heap's
// running threshold and, for the few rows that survive it, the keep
// filter.
func (f *FlatIndex) scanAll(ctx context.Context, q Vector, qn float32, k int, cosine bool, keep func(uint64) bool) ([]Result, error) {
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
		hi := min(lo+scanBlock, n)
		scores := buf[:hi-lo]
		dotRows(scores, q, f.data[lo*dim:hi*dim])
		ids, norms := f.ids[lo:hi], f.norms[lo:hi]
		for i, s := range scores {
			if s = scaled(s, cosine, qn, norms[i]); below(&sel, s) {
				continue
			}
			if r := (Result{ID: ids[i], Score: s}); sel.Admits(r) && (keep == nil || keep(r.ID)) {
				sel.Push(r)
			}
		}
	}
	f.rescored.Add(uint64(n))
	return sel.Sorted(), nil
}

// scaled is the score a scan ranks a row by, given its inner product s
// with the query: s itself, or for a cosine scan s/(qn·rn), where a
// zero-norm row scores 0.
func scaled(s float32, cosine bool, qn, rn float32) float32 {
	if !cosine {
		return s
	}
	if rn == 0 {
		return 0
	}
	return s / (qn * rn)
}

// Len returns the number of stored vectors.
func (f *FlatIndex) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.ids)
}

// Dim returns the vector dimensionality (0 while empty).
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
// nprobe nearest lists. Build it once with BuildIVF; SearchNProbe is safe
// for concurrent use afterwards.
type IVFIndex struct {
	centroids []Vector
	lists     [][]int // centroid -> indexes into ids/vecs
	ids       []uint64
	vecs      []Vector
}

// IVFOptions configure BuildIVF.
type IVFOptions struct {
	// NList is the number of clusters; default sqrt(n) clamped to [1,256].
	NList int
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
	return &IVFIndex{centroids: centroids, lists: lists, ids: idsCp, vecs: vecsCp}, nil
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
