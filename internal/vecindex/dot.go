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
