package vecindex

// dotRowsGo is the reference body of the scan kernel (see the package
// comment for the contract): dst[r] = q · rows[r*len(q):(r+1)*len(q)].
// Element i of a row is multiplied into lane i%8; each product is rounded
// to float32 before it is added (the explicit conversions forbid the
// compiler from fusing the multiply into the add), and the eight lanes
// are summed as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
func dotRowsGo(dst, q, rows []float32) {
	dim := len(q)
	for r := range dst {
		row := rows[r*dim:][:dim]
		var l0, l1, l2, l3, l4, l5, l6, l7 float32
		i := 0
		for ; i+8 <= dim; i += 8 {
			a, b := q[i:i+8:i+8], row[i:i+8:i+8]
			l0 += float32(a[0] * b[0])
			l1 += float32(a[1] * b[1])
			l2 += float32(a[2] * b[2])
			l3 += float32(a[3] * b[3])
			l4 += float32(a[4] * b[4])
			l5 += float32(a[5] * b[5])
			l6 += float32(a[6] * b[6])
			l7 += float32(a[7] * b[7])
		}
		a, b := q[i:], row[i:]
		switch len(a) { // the dim%8 trailing elements keep their lanes
		case 7:
			l6 += float32(a[6] * b[6])
			fallthrough
		case 6:
			l5 += float32(a[5] * b[5])
			fallthrough
		case 5:
			l4 += float32(a[4] * b[4])
			fallthrough
		case 4:
			l3 += float32(a[3] * b[3])
			fallthrough
		case 3:
			l2 += float32(a[2] * b[2])
			fallthrough
		case 2:
			l1 += float32(a[1] * b[1])
			fallthrough
		case 1:
			l0 += float32(a[0] * b[0])
		}
		dst[r] = ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
	}
}

// dotCodesGo is the reference body of the prefilter's integer kernel:
// for each group of eight rows, dst[r] = Σ_p lo(qp[p])·c[r][2p] +
// hi(qp[p])·c[r][2p+1], where lo and hi are the words' signed halves and
// the group's codes sit pair by pair, sixteen bytes to a pair (row r's
// two codes at bytes 2r and 2r+1). The sums are exact in int32 for rows
// no wider than maxCodedDim, so every body returns the same integers.
func dotCodesGo(dst, qp []int32, codes []int8) {
	for g := 0; g+8 <= len(dst); g += 8 {
		blk := codes[2*g*len(qp):][:16*len(qp)]
		d := (*[8]int32)(dst[g:])
		// Two passes of four rows each: half as many sums live at once
		// as one pass of eight, whose sums amd64's compiler spills.
		for h := 0; h < 16; h += 8 {
			var a0, a1, a2, a3 int32
			b := blk[h:]
			for _, w := range qp {
				lo, hi := int32(int16(w)), w>>16
				c := (*[8]int8)(b)
				a0 += int32(c[0])*lo + int32(c[1])*hi
				a1 += int32(c[2])*lo + int32(c[3])*hi
				a2 += int32(c[4])*lo + int32(c[5])*hi
				a3 += int32(c[6])*lo + int32(c[7])*hi
				if len(b) > 16 {
					b = b[16:]
				}
			}
			d[h/2], d[h/2+1], d[h/2+2], d[h/2+3] = a0, a1, a2, a3
		}
	}
}

// boundMaskGo is the reference body of the prefilter's threshold pass:
// bit r%64 of mask[r/64] is set when row r's upper bound
// w[r]·(acc[r]·b[0] + b[1]) + b[2] is not below the threshold b[3], or
// is NaN (a row outside the tame range), and clear otherwise. mask has
// (len(acc)+63)/64 words; every word is written.
func boundMaskGo(mask []uint64, acc []int32, w []float32, b *[4]float64) {
	w = w[:len(acc)]
	for j := range mask {
		var m uint64
		for r := 64 * j; r < min(64*j+64, len(acc)); r++ {
			if u := float64(w[r])*(float64(acc[r])*b[0]+b[1]) + b[2]; !(u < b[3]) {
				m |= 1 << (r % 64)
			}
		}
		mask[j] = m
	}
}
