package vecindex

import (
	"math"
	"sync"

	"saga/internal/topk"
)

// maxCodedDim is the widest row the prefilter codes: a word of the query
// times a pair of row codes is at most 2·127·32767 in magnitude, and the
// (dim+1)/2 such terms of a row must sum inside an int32.
const maxCodedDim = 516

// tame reports whether a row or query whose largest component magnitude
// is m (NaN when a component is not finite) lies in the range the bound
// is derived for: no product or sum the kernel forms can overflow, and
// every norm and norm product is a normal float32.
func tame(m float64) bool { return m >= 0x1p-40 && m <= 0x1p40 }

// maxAbs returns the largest |x| over v, or NaN if v holds a NaN or an
// infinity.
func maxAbs(v []float32) float64 {
	var m float64
	for _, x := range v {
		a := math.Abs(float64(x))
		if !(a <= math.MaxFloat32) {
			return math.NaN()
		}
		m = max(m, a)
	}
	return m
}

// codedDim reports whether rows of dim components carry int8 codes.
func codedDim(dim int) bool { return dim <= maxCodedDim }

// growCodes makes room for the codes and factors of row n-1, the row
// just appended: a fresh group of eight zeroed rows every eighth row.
func (f *FlatIndex) growCodes(n int) {
	if need := (n + 7) / 8 * 8 * (f.dim + f.dim&1); len(f.codes) < need {
		f.codes = append(f.codes, make([]int8, need-len(f.codes))...)
	}
	f.scales = append(f.scales, 0)
	f.cscales = append(f.cscales, 0)
}

// code writes row i's int8 codes and factors from its float32 row and
// norm. A row outside the tame range is coded as zeros with NaN factors,
// which send it to the re-score whatever the query.
func (f *FlatIndex) code(i int) {
	dp := f.dim + f.dim&1
	blk, r := f.codes[i/8*8*dp:][:8*dp], 2*(i%8)
	row := f.data[i*f.dim:][:f.dim]
	m := maxAbs(row)
	if !tame(m) {
		for j := range row {
			blk[j/2*16+r+j%2] = 0
		}
		f.scales[i], f.cscales[i] = float32(math.NaN()), float32(math.NaN())
		return
	}
	// σ ≥ m/127 exactly (σ·127 is exact in float64), so every quotient
	// below rounds into [-127, 127].
	sigma := float32(m / 127)
	if float64(sigma)*127 < m {
		sigma = math.Nextafter32(sigma, math.MaxFloat32)
	}
	for j, x := range row {
		blk[j/2*16+r+j%2] = int8(math.Round(float64(x) / float64(sigma)))
	}
	f.scales[i] = sigma
	f.cscales[i] = float32(float64(sigma) / float64(f.norms[i]))
}

// prefilter is one scan's scratch for its integer phase, pooled so that a
// scan allocates nothing for it.
type prefilter struct {
	qp    []int32            // the query's codes, two int16 to a word
	lows  topk.Heap[float64] // the k largest lower bounds of kept rows
	cands []cand             // rows whose upper bound reached the running threshold
	// A row with integer score A and factor w has bounds
	// w·(A·alpha ∓ beta) ∓ g0 on its float32 score.
	alpha, beta, g0 float64
}

// cand is a row the second phase may re-score.
type cand struct {
	i  int32
	hi float64 // the row's upper bound; +Inf for a row outside the tame range
}

var prefilters = sync.Pool{New: func() any {
	return &prefilter{lows: topk.New(0, 0, func(a, b float64) bool { return a < b })}
}}

// prepare codes q and sets the bound's query terms for a plain (inner
// product) or a cosine scan whose query norm is qn. It reports false when
// q lies outside the tame range: the scan must then re-score every row.
// The package comment derives the terms.
func (p *prefilter) prepare(q []float32, cosine bool, qn float32) bool {
	m := maxAbs(q)
	if !tame(m) {
		return false
	}
	tau := m / 32767
	p.qp = p.qp[:0]
	var l1 float64
	for j := 0; j < len(q); j += 2 {
		lo, hi := int16(math.Round(float64(q[j])/tau)), int16(0)
		if j+1 < len(q) {
			hi = int16(math.Round(float64(q[j+1]) / tau))
		}
		p.qp = append(p.qp, int32(uint32(uint16(lo))|uint32(uint16(hi))<<16))
	}
	for _, x := range q {
		l1 += math.Abs(float64(x))
	}
	dim := float64(len(q))
	depth := float64((len(q)+7)/8 + 4)
	gamma := depth * 0x1p-24 / (1 - depth*0x1p-24)
	e := (0.5+0x1p-46)*l1 + (0.5+0x1p-37)*127*dim*tau + 127*gamma*l1
	e = (e + 127*l1*0x1p-40) * (1 + 0x1p-30)
	e0 := dim * 0x1p-148
	if !cosine {
		p.alpha, p.beta, p.g0 = tau, e, e0
		return true
	}
	qn64 := float64(qn)
	p.alpha, p.beta, p.g0 = tau/qn64, e/qn64*(1+0x1p-20), e0*0x1p40/qn64+4*0x1p-24+0x1p-149
	return true
}

// bounds returns the interval that holds the float32 score of a row whose
// integer score is a and whose factor is w.
func (p *prefilter) bounds(a int32, w float32) (lo, hi float64) {
	ww, c := float64(w), float64(a)*p.alpha
	return ww*(c-p.beta) - p.g0, ww*(c+p.beta) + p.g0
}
