//go:build !amd64 || purego

package vecindex

// dotRows is the scan kernel; on this build it is the Go body.
func dotRows(dst, q, rows []float32) {
	dotRowsGo(dst, q, rows[:len(dst)*len(q)])
}
