//go:build !race

package repro_test

// raceEnabled reports whether the test binary was built with the race
// detector; see race_enabled_test.go.
const raceEnabled = false
