package vecindex

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

type triBody struct {
	dot    func(h, r, t []float32) float32
	update func(h, r, t []float32, gf, decay float32)
}

// refTriDot is the TriDot contract spelled out with a lane array.
func refTriDot(h, r, t []float32) float32 {
	var l [8]float32
	for i := range h {
		p := float32(h[i] * r[i])
		l[i%8] += float32(p * t[i])
	}
	return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

// refTriUpdate is the TriUpdate contract on separate output rows; when h
// and t are one row the value that stays is t's.
func refTriUpdate(h, r, t []float32, gf, decay float32, aliased bool) (h2, r2, t2 []float32) {
	h2, r2, t2 = make([]float32, len(h)), make([]float32, len(h)), make([]float32, len(h))
	for i := range h {
		gr, gh := float32(gf*r[i]), float32(gf*h[i])
		h2[i] = float32(h[i]*decay) - float32(gr*t[i])
		r2[i] = float32(r[i]*decay) - float32(gh*t[i])
		t2[i] = float32(t[i]*decay) - float32(gh*r[i])
	}
	if aliased {
		h2 = t2
	}
	return h2, r2, t2
}

// checkTriStep runs every body on one step — distinct rows when t is
// non-nil, h and t as one row when it is nil — inside guard words that
// must survive it.
func checkTriStep(t *testing.T, h, r, tt []float32, gf, decay float32) {
	t.Helper()
	dim := len(h)
	aliased := tt == nil
	if aliased {
		tt = h
	}
	wantDot := refTriDot(h, r, tt)
	wantH, wantR, wantT := refTriUpdate(h, r, tt, gf, decay, aliased)
	const guard = float32(12345.5)
	for name, body := range triBodies() {
		// One slab, a guard word after each row: a store past dim shows.
		slab := make([]float32, 3*(dim+1))
		for i := range slab {
			slab[i] = guard
		}
		gh, gr, gt := slab[0:dim:dim], slab[dim+1:][:dim:dim], slab[2*dim+2:][:dim:dim]
		copy(gh, h)
		copy(gr, r)
		copy(gt, tt)
		if aliased {
			gt = gh
		}
		if got := body.dot(gh, gr, gt); !sameFloat(got, wantDot) {
			t.Fatalf("%s: dim %d aliased=%v: dot = %x (%v), want %x (%v)", name, dim, aliased,
				math.Float32bits(got), got, math.Float32bits(wantDot), wantDot)
		}
		body.update(gh, gr, gt, gf, decay)
		for i := 0; i < dim; i++ {
			if !sameFloat(gh[i], wantH[i]) || !sameFloat(gr[i], wantR[i]) || !sameFloat(gt[i], wantT[i]) {
				t.Fatalf("%s: dim %d aliased=%v element %d: got (%v %v %v), want (%v %v %v)", name, dim, aliased, i,
					gh[i], gr[i], gt[i], wantH[i], wantR[i], wantT[i])
			}
		}
		for _, g := range []int{dim, 2*dim + 1} {
			if slab[g] != guard {
				t.Fatalf("%s: dim %d: guard word %d overwritten", name, dim, g)
			}
		}
		if !aliased && slab[3*dim+2] != guard {
			t.Fatalf("%s: dim %d: guard word after t overwritten", name, dim)
		}
	}
}

func TestTriStepBodiesAgreeBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for dim := 0; dim <= 70; dim++ {
		for _, special := range []float64{0, 0.15} {
			for rep := 0; rep < 4; rep++ {
				h, r, tt := make([]float32, dim), make([]float32, dim), make([]float32, dim)
				for i := 0; i < dim; i++ {
					h[i], r[i], tt[i] = randomComponent(rng, special), randomComponent(rng, special), randomComponent(rng, special)
				}
				gf, decay := randomComponent(rng, special), float32(1-0.05*1e-5)
				if rep == 3 {
					decay = randomComponent(rng, special)
				}
				checkTriStep(t, h, r, tt, gf, decay)
				checkTriStep(t, h, r, nil, gf, decay)
			}
		}
	}
}

func TestTriDotNeverNegativeZero(t *testing.T) {
	// Every product is -0: the lanes start at +0, so the sum is +0 in all
	// bodies (the masked tail of the assembly relies on this).
	for dim := 1; dim <= 17; dim++ {
		h, r, tt := make([]float32, dim), make([]float32, dim), make([]float32, dim)
		for i := range h {
			h[i], r[i], tt[i] = 1, 1, float32(math.Copysign(0, -1))
		}
		for name, body := range triBodies() {
			if got := body.dot(h, r, tt); math.Float32bits(got) != 0 {
				t.Fatalf("%s: dim %d: got %x, want +0", name, dim, math.Float32bits(got))
			}
		}
	}
}

func FuzzTriStep(f *testing.F) {
	f.Add(uint8(3), false, []byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 64, 0, 0, 160, 64,
		0, 0, 192, 64, 0, 0, 224, 64, 0, 0, 0, 65, 0, 0, 16, 65, 0, 0, 0, 63, 0, 0, 128, 63})
	f.Add(uint8(9), true, make([]byte, 4*(2*9+2)))
	f.Add(uint8(1), true, []byte{0, 0, 192, 127, 0, 0, 128, 127, 1, 0, 0, 0, 0, 0, 128, 255})
	f.Fuzz(func(t *testing.T, dim8 uint8, aliased bool, data []byte) {
		dim := int(dim8 % 71)
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		rows := 3
		if aliased {
			rows = 2
		}
		if len(vals) < rows*dim+2 {
			return
		}
		gf, decay := vals[0], vals[1]
		vals = vals[2:]
		var tt []float32
		if !aliased {
			tt = vals[2*dim : 3*dim]
		}
		checkTriStep(t, vals[:dim], vals[dim:2*dim], tt, gf, decay)
	})
}

func benchTriRows(dim int) (h, r, t []float32) {
	rng := rand.New(rand.NewSource(1))
	h, r, t = make([]float32, dim), make([]float32, dim), make([]float32, dim)
	for i := range h {
		h[i], r[i], t[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	return h, r, t
}

var triSink float32

// BenchmarkTriStep is one DistMult logistic step's kernel work at the
// serving dimension: a TriDot and a TriUpdate over three 32-float rows.
func BenchmarkTriStep(b *testing.B) {
	for name, body := range triBodies() {
		b.Run(name, func(b *testing.B) {
			h, r, t := benchTriRows(32)
			for i := 0; i < b.N; i++ {
				triSink += body.dot(h, r, t)
				body.update(h, r, t, 1e-9, 1)
			}
		})
	}
}
