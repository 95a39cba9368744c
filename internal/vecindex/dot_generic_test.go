//go:build !amd64 || purego

package vecindex

// kernelBodies lists every dotRows body this build can run.
func kernelBodies() map[string]func(dst, q, rows []float32) {
	return map[string]func(dst, q, rows []float32){"go": dotRowsGo, "dispatch": dotRows}
}

// triBodies lists every body of the training step kernel this build can
// run.
func triBodies() map[string]triBody {
	return map[string]triBody{"go": {triDotGo, triUpdateGo}, "dispatch": {TriDot, TriUpdate}}
}
