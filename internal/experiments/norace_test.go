//go:build !race

package experiments

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
