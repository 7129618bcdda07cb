//go:build race

package sifault

// raceDetector skips the allocation bound under -race, whose
// instrumentation allocates on its own.
const raceDetector = true
