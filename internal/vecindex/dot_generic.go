//go:build !amd64 || purego

package vecindex

// dotRows is the scan kernel; on this build it is the Go body.
func dotRows(dst, q, rows []float32) {
	dotRowsGo(dst, q, rows[:len(dst)*len(q)])
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
