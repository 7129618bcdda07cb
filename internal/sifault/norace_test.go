//go:build !race

package sifault

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
