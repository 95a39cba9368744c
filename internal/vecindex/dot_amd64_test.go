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

// triBodies lists every body of the training step kernel this build can
// run.
func triBodies() map[string]triBody {
	m := map[string]triBody{"go": {triDotGo, triUpdateGo}, "dispatch": {TriDot, TriUpdate}}
	if useAVX2 {
		m["avx2"] = triBody{triDotAVX2, triUpdateAVX2}
	}
	return m
}
