//go:build amd64 && !purego

package vecindex

// kernelBodies lists every dotRows body this build can run.
func kernelBodies() map[string]func(dst, q, rows []float32) {
	m := map[string]func(dst, q, rows []float32){"go": dotRowsGo, "dispatch": dotRows}
	if useAVX2 {
		m["avx2"] = dotRowsAVX2
	}
	return m
}
