package vecindex

// triDotGo is the reference body of TriDot (see the package comment for
// the contract): Σ (h[i]·r[i])·t[i] with both products rounded to
// float32, element i accumulated in lane i%8 and the lanes summed by
// dotRows' reduction tree. The explicit conversions forbid fusing.
func triDotGo(h, r, t []float32) float32 {
	dim := len(h)
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	i := 0
	for ; i+8 <= dim; i += 8 {
		a, b, c := h[i:i+8:i+8], r[i:i+8:i+8], t[i:i+8:i+8]
		l0 += float32(float32(a[0]*b[0]) * c[0])
		l1 += float32(float32(a[1]*b[1]) * c[1])
		l2 += float32(float32(a[2]*b[2]) * c[2])
		l3 += float32(float32(a[3]*b[3]) * c[3])
		l4 += float32(float32(a[4]*b[4]) * c[4])
		l5 += float32(float32(a[5]*b[5]) * c[5])
		l6 += float32(float32(a[6]*b[6]) * c[6])
		l7 += float32(float32(a[7]*b[7]) * c[7])
	}
	a, b, c := h[i:], r[i:dim], t[i:dim]
	switch len(a) { // the dim%8 trailing elements keep their lanes
	case 7:
		l6 += float32(float32(a[6]*b[6]) * c[6])
		fallthrough
	case 6:
		l5 += float32(float32(a[5]*b[5]) * c[5])
		fallthrough
	case 5:
		l4 += float32(float32(a[4]*b[4]) * c[4])
		fallthrough
	case 4:
		l3 += float32(float32(a[3]*b[3]) * c[3])
		fallthrough
	case 3:
		l2 += float32(float32(a[2]*b[2]) * c[2])
		fallthrough
	case 2:
		l1 += float32(float32(a[1]*b[1]) * c[1])
		fallthrough
	case 1:
		l0 += float32(float32(a[0]*b[0]) * c[0])
	}
	return ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
}

// triUpdateGo is the reference body of TriUpdate: every element is read
// from all three rows before any of them is written, then h, r and t are
// written in that order — so when h and t are one row, the value that
// stays is t's.
func triUpdateGo(h, r, t []float32, gf, decay float32) {
	r, t = r[:len(h)], t[:len(h)]
	for i, hv := range h {
		rv, tv := r[i], t[i]
		gh := float32(gf * hv)
		h[i] = float32(hv*decay) - float32(float32(gf*rv)*tv)
		r[i] = float32(rv*decay) - float32(gh*tv)
		t[i] = float32(tv*decay) - float32(gh*rv)
	}
}
