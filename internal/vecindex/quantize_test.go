package vecindex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeRoundTrip(t *testing.T) {
	v := Vector{1.0, -0.5, 0.25, 0}
	q := Quantize(v)
	for i := range v {
		if back := float32(q.Codes[i]) * q.Scale; math.Abs(float64(back-v[i])) > float64(q.Scale) {
			t.Fatalf("element %d: %v -> %v (scale %v)", i, v[i], back, q.Scale)
		}
	}
	if q.MemoryBytes() != len(v)+4 {
		t.Fatalf("MemoryBytes = %d", q.MemoryBytes())
	}
}

func TestQuantizeZeroVector(t *testing.T) {
	q := Quantize(Vector{0, 0, 0})
	for _, c := range q.Codes {
		if c != 0 {
			t.Fatal("zero vector must quantize to zero codes")
		}
	}
}

func TestDotQuantizedApproximatesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		dim := 16
		a := make(Vector, dim)
		b := make(Vector, dim)
		for i := 0; i < dim; i++ {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		exact := Dot(a, b)
		approx := DotQuantized(a, Quantize(b))
		// Quantization error per element <= scale/2; dot error bounded by
		// |a|_1 * scale / 2.
		var l1 float32
		for _, x := range a {
			if x < 0 {
				l1 -= x
			} else {
				l1 += x
			}
		}
		bound := l1 * Quantize(b).Scale
		if math.Abs(float64(exact-approx)) > float64(bound)+1e-4 {
			t.Fatalf("trial %d: exact %v approx %v bound %v", trial, exact, approx, bound)
		}
	}
}

func TestQuantizedIndexSearchAgreesWithFlat(t *testing.T) {
	ids, vecs := randomVectors(400, 24, 9)
	flat := NewFlat()
	quant := NewQuantized()
	for i := range ids {
		if err := flat.Add(ids[i], vecs[i]); err != nil {
			t.Fatal(err)
		}
		if err := quant.Add(ids[i], vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if quant.Len() != 400 || quant.dim != 24 {
		t.Fatalf("len/dim = %d/%d", quant.Len(), quant.dim)
	}
	// Recall@10 of quantized vs exact must be high.
	var hit, total int
	for q := 0; q < 40; q++ {
		query := vecs[(q*11)%len(vecs)]
		want := flat.Search(query, 10)
		got := quant.Search(query, 10)
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
	recall := float64(hit) / float64(total)
	if recall < 0.9 {
		t.Fatalf("int8 recall@10 = %v, want > 0.9", recall)
	}
	// Memory is ~4x smaller than float32 storage.
	floatBytes := 400 * 24 * 4
	if quant.MemoryBytes() >= floatBytes/3 {
		t.Fatalf("quantized memory %d not <1/3 of float %d", quant.MemoryBytes(), floatBytes)
	}
}

func TestQuantizedIndexEdgeCases(t *testing.T) {
	q := NewQuantized()
	if err := q.Add(1, Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(2, Vector{1, 2, 3}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if got := q.Search(Vector{1}, 5); got != nil {
		t.Fatal("query dim mismatch must return nil")
	}
	if got := q.Search(Vector{1, 0}, 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
	// Replace.
	if err := q.Add(1, Vector{5, 5}); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 {
		t.Fatalf("len after replace = %d", q.Len())
	}
}

// Property: quantization error per element never exceeds the scale, and
// codes stay within int8 bounds.
func TestQuantizePropertyBounds(t *testing.T) {
	f := func(raw []float32) bool {
		v := make(Vector, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return true
			}
			v = append(v, x)
		}
		if len(v) == 0 {
			return true
		}
		q := Quantize(v)
		for i := range v {
			if back := float32(q.Codes[i]) * q.Scale; math.Abs(float64(back-v[i])) > float64(q.Scale)*0.51 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
