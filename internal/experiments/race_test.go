//go:build race

package experiments

// raceDetector skips the full Tables 2/3 pin under -race, where the
// serial sweep alone takes minutes; CI runs the pin without it.
const raceDetector = true
