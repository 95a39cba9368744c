//go:build !amd64 || purego

package vecindex

// dotRows is the scan kernel; on this build it is the Go body.
func dotRows(dst, q, rows []float32) {
	dotRowsGo(dst, q, rows[:len(dst)*len(q)])
}

// dotCodes is the prefilter's integer kernel; on this build it is the Go
// body.
func dotCodes(dst, qp []int32, codes []int8) {
	dotCodesGo(dst, qp, codes[:len(dst)*2*len(qp)])
}

// boundMask is the prefilter's threshold pass; on this build it is the Go
// body.
func boundMask(mask []uint64, acc []int32, w []float32, b *[4]float64) {
	boundMaskGo(mask, acc, w, b)
}

// TriDot is the score half of the training step kernel; on this build it
// is the Go body.
func TriDot(h, r, t []float32) float32 {
	return triDotGo(h, r[:len(h)], t[:len(h)])
}

// TriUpdate is the update half of the training step kernel; on this build
// it is the Go body.
func TriUpdate(h, r, t []float32, gf, decay float32) {
	triUpdateGo(h, r, t, gf, decay)
}
