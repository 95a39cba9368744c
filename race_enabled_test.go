//go:build race

package repro_test

// raceEnabled reports whether the test binary was built with the race
// detector, under which a test of single-threaded arithmetic may check a
// sample of its inputs.
const raceEnabled = true
