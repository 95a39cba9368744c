//go:build race

package embedding

// raceDetectorEnabled reports whether this binary was built with the Go
// race detector. Hogwild training (see trainBucket) performs parameter
// updates that race by design; the detector rightly flags them, so race
// builds run one updater instead. Its sampler goroutine still runs
// beside it: the blocks they pass are synchronized, and the detector
// checks that hand-over.
const raceDetectorEnabled = true
