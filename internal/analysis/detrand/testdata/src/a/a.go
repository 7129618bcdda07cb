// Package a exercises the detrand analyzer: no global math/rand and no
// time.Now in the deterministic search path.
package a

import (
	"math/rand"
	"time"
)

func flagged(xs []int) int {
	n := rand.Intn(10)                     // want `global rand\.Intn draws from the process-wide source`
	rand.Shuffle(len(xs), func(i, j int) { // want `global rand\.Shuffle draws from the process-wide source`
		xs[i], xs[j] = xs[j], xs[i]
	})
	t := time.Now() // want `time\.Now in the deterministic search path`
	_ = t
	return n
}

func allowed() int {
	// Constructors build the injected, seeded generators; methods on
	// the resulting *rand.Rand are the sanctioned randomness.
	rng := rand.New(rand.NewSource(1))
	return rng.Intn(10)
}

func suppressed() int64 {
	t := time.Now() //sitlint:allow detrand — timing capture feeding a metrics histogram only
	return t.UnixNano()
}
