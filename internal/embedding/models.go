package embedding

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"saga/internal/vecindex"
)

// ModelKind selects the shallow embedding model family.
type ModelKind string

const (
	// TransE is the translational-distance model of Bordes et al. 2013
	// (paper reference [3]).
	TransE ModelKind = "transe"
	// DistMult is the bilinear-diagonal semantic matching model of Yang
	// et al. 2014 (paper reference [22]).
	DistMult ModelKind = "distmult"
	// ComplEx is the complex-valued bilinear model, the generalization the
	// paper's related-work section points at via [23].
	ComplEx ModelKind = "complex"
)

// Model is a trainable shallow KG embedding model. Score is higher for
// more plausible triples for every model kind (TransE distances are
// negated). Update performs one SGD step on a positive triple and one
// corrupted negative. Models are NOT internally synchronized: the trainer
// runs Hogwild-style lock-free updates, which is the standard approach for
// sparse-gradient shallow models.
type Model interface {
	Kind() ModelKind
	Dim() int
	NumEntities() int
	NumRelations() int
	// Score returns the plausibility of (h, r, t) by dense index.
	Score(h, r, t int32) float64
	// Update applies one SGD step given a positive (h,r,t) and a negative
	// (nh,r,nt) at learning rate lr.
	Update(h, r, t, nh, nt int32, lr float64)
	// EntityVector returns the (possibly concatenated re/im) entity
	// embedding as a vecindex.Vector copy.
	EntityVector(e int32) vecindex.Vector
	// EntityVectors returns a copy of every entity's EntityVector as one
	// row-major matrix, entity e at row e.
	EntityVectors() []float32
}

// NewModel constructs a model with Xavier-style random initialization.
func NewModel(kind ModelKind, numEnts, numRels, dim int, seed int64) (Model, error) {
	if numEnts <= 0 || numRels <= 0 || dim <= 0 {
		return nil, fmt.Errorf("embedding: invalid model shape ents=%d rels=%d dim=%d", numEnts, numRels, dim)
	}
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case TransE:
		m := &transEModel{base: newBase(numEnts, numRels, dim, rng)}
		m.normalizeEntities()
		return m, nil
	case DistMult:
		return &distMultModel{base: newBase(numEnts, numRels, dim, rng)}, nil
	case ComplEx:
		// Store re and im halves concatenated: vectors of length 2*dim.
		return &complExModel{base: newBase(numEnts, numRels, 2*dim, rng), half: dim}, nil
	default:
		return nil, fmt.Errorf("embedding: unknown model kind %q", kind)
	}
}

// base holds the parameter matrices shared by all model kinds, each one
// flat and row-major: row i is m[i*dim : (i+1)*dim].
type base struct {
	ent []float32
	rel []float32
	dim int
}

func newBase(numEnts, numRels, dim int, rng *rand.Rand) base {
	bound := float32(6 / math.Sqrt(float64(dim)))
	mk := func(n int) []float32 {
		m := make([]float32, n*dim)
		for i := range m {
			m[i] = (rng.Float32()*2 - 1) * bound
		}
		return m
	}
	return base{ent: mk(numEnts), rel: mk(numRels), dim: dim}
}

// entRow and relRow are the one way to a parameter row: a full-capacity
// window of the flat matrix, so writes go to the model and an append
// cannot run into the next row.
func (b *base) entRow(e int32) []float32 { return row(b.ent, e, b.dim) }
func (b *base) relRow(r int32) []float32 { return row(b.rel, r, b.dim) }

func row(m []float32, i int32, dim int) []float32 {
	o := int(i) * dim
	return m[o : o+dim : o+dim]
}

// touch reads the first and the last element of the entity rows a step
// will update, so that the rows are on their way into the cache before
// the step needs them; the sum only keeps the loads from being dropped.
func (b *base) touch(st step) float32 {
	ent, dim := b.ent, b.dim
	last := dim - 1
	h, t, nh, nt := int(st.h)*dim, int(st.t)*dim, int(st.nh)*dim, int(st.nt)*dim
	return ent[h] + ent[h+last] + ent[t] + ent[t+last] + ent[nh] + ent[nh+last] + ent[nt] + ent[nt+last]
}

func (b *base) NumEntities() int  { return len(b.ent) / b.dim }
func (b *base) NumRelations() int { return len(b.rel) / b.dim }
func (b *base) Dim() int          { return b.dim }

func (b *base) EntityVector(e int32) vecindex.Vector {
	return append(vecindex.Vector(nil), b.entRow(e)...)
}

func (b *base) EntityVectors() []float32 { return slices.Clone(b.ent) }

// ---------------------------------------------------------------- TransE

type transEModel struct {
	base
}

func (m *transEModel) Kind() ModelKind { return TransE }

// Score returns the negated squared L2 distance ||h + r - t||².
func (m *transEModel) Score(h, r, t int32) float64 {
	hv, rv, tv := m.entRow(h), m.relRow(r), m.entRow(t)
	var s float64
	for i := 0; i < m.dim; i++ {
		d := float64(hv[i] + rv[i] - tv[i])
		s += d * d
	}
	return -s
}

const transEMargin = 1.0

// Update applies a margin-ranking step: push the positive distance below
// the negative distance by at least the margin.
func (m *transEModel) Update(h, r, t, nh, nt int32, lr float64) {
	hv, rv, tv := m.entRow(h), m.relRow(r), m.entRow(t)
	nhv, ntv := m.entRow(nh), m.entRow(nt)
	if transEDist(hv, rv, tv)+transEMargin <= transEDist(nhv, rv, ntv) {
		return // margin satisfied, no gradient
	}
	step := float32(lr)
	for i := 0; i < m.dim; i++ {
		dPos := hv[i] + rv[i] - tv[i]
		dNeg := nhv[i] + rv[i] - ntv[i]
		// Positive triple: reduce distance.
		g := 2 * step * dPos
		hv[i] -= g
		tv[i] += g
		// Negative triple: increase distance.
		gn := 2 * step * dNeg
		nhv[i] += gn
		ntv[i] -= gn
		// Relation gets both contributions.
		rv[i] -= g - gn
	}
	normalizeVec(hv)
	normalizeVec(tv)
	normalizeVec(nhv)
	normalizeVec(ntv)
}

// transEDist is the training step's ‖h + r − t‖², in the parameters'
// own precision (Score is the float64 definition serving reads).
func transEDist(hv, rv, tv []float32) float32 {
	var s float32
	for i, x := range hv {
		d := x + rv[i] - tv[i]
		s += d * d
	}
	return s
}

func (m *transEModel) normalizeEntities() {
	for e := 0; e < m.NumEntities(); e++ {
		normalizeVec(m.entRow(int32(e)))
	}
}

// normalizeVec projects v onto the unit sphere (TransE's entity
// constraint), leaving zero vectors alone.
func normalizeVec(v []float32) {
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	if n == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(n))
	for i := range v {
		v[i] *= inv
	}
}

// -------------------------------------------------------------- DistMult

type distMultModel struct {
	base
}

func (m *distMultModel) Kind() ModelKind { return DistMult }

// Score is the trilinear product Σ h·r·t.
func (m *distMultModel) Score(h, r, t int32) float64 {
	hv, rv, tv := m.entRow(h), m.relRow(r), m.entRow(t)
	var s float64
	for i := 0; i < m.dim; i++ {
		s += float64(hv[i]) * float64(rv[i]) * float64(tv[i])
	}
	return s
}

const l2Reg = 1e-5

// Update applies one logistic-loss step on the positive and one on the
// negative, each a TriDot, a sigmoid and a TriUpdate (the step kernel of
// the package comment). The second step reads what the first wrote: the
// two triples share r and one end.
func (m *distMultModel) Update(h, r, t, nh, nt int32, lr float64) {
	decay := float32(1 - lr*l2Reg)
	rv := m.relRow(r)
	m.logisticStep(m.entRow(h), rv, m.entRow(t), 1, lr, decay)
	m.logisticStep(m.entRow(nh), rv, m.entRow(nt), -1, lr, decay)
}

// logisticStep descends loss = log(1 + exp(-label·s)) + (l2Reg/2)·‖θ‖² on
// one triple: x ← x·(1 − lr·l2Reg) − lr·(dLoss/ds)·(∂s/∂x).
func (m *distMultModel) logisticStep(hv, rv, tv []float32, label, lr float64, decay float32) {
	s := float64(vecindex.TriDot(hv, rv, tv))
	g := -label * sigmoid(-label*s)
	vecindex.TriUpdate(hv, rv, tv, float32(lr*g), decay)
}

// --------------------------------------------------------------- ComplEx

type complExModel struct {
	base
	half int // real dimensionality; vectors are [re | im]
}

func (m *complExModel) Kind() ModelKind { return ComplEx }
func (m *complExModel) Dim() int        { return m.half }

// Score is Re(<h, r, conj(t)>).
func (m *complExModel) Score(h, r, t int32) float64 {
	hv, rv, tv := m.entRow(h), m.relRow(r), m.entRow(t)
	d := m.half
	var s float64
	for i := 0; i < d; i++ {
		hr, hi := float64(hv[i]), float64(hv[d+i])
		rr, ri := float64(rv[i]), float64(rv[d+i])
		tr, ti := float64(tv[i]), float64(tv[d+i])
		s += hr*rr*tr + hi*rr*ti + hr*ri*ti - hi*ri*tr
	}
	return s
}

// Update applies one logistic-loss step on the positive and the negative.
func (m *complExModel) Update(h, r, t, nh, nt int32, lr float64) {
	m.logisticStep(h, r, t, 1, lr)
	m.logisticStep(nh, r, nt, -1, lr)
}

func (m *complExModel) logisticStep(h, r, t int32, label float64, lr float64) {
	hv, rv, tv := m.entRow(h), m.relRow(r), m.entRow(t)
	d := m.half
	// The step's own score, in the parameters' precision (Score is the
	// float64 definition serving reads).
	var s float32
	for i := 0; i < d; i++ {
		hr, hi := hv[i], hv[d+i]
		rr, ri := rv[i], rv[d+i]
		tr, ti := tv[i], tv[d+i]
		s += hr*rr*tr + hi*rr*ti + hr*ri*ti - hi*ri*tr
	}
	g := float32(-label * sigmoid(-label*float64(s)))
	step := float32(lr)
	for i := 0; i < d; i++ {
		hr, hi := hv[i], hv[d+i]
		rr, ri := rv[i], rv[d+i]
		tr, ti := tv[i], tv[d+i]
		// Partial derivatives of the ComplEx score.
		dhr := rr*tr + ri*ti
		dhi := rr*ti - ri*tr
		drr := hr*tr + hi*ti
		dri := hr*ti - hi*tr
		dtr := hr*rr - hi*ri
		dti := hi*rr + hr*ri
		hv[i] -= step * (g*dhr + l2Reg*hr)
		hv[d+i] -= step * (g*dhi + l2Reg*hi)
		rv[i] -= step * (g*drr + l2Reg*rr)
		rv[d+i] -= step * (g*dri + l2Reg*ri)
		tv[i] -= step * (g*dtr + l2Reg*tr)
		tv[d+i] -= step * (g*dti + l2Reg*ti)
	}
}

func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
