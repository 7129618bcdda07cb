package core

import (
	"sync"
	"sync/atomic"

	"sitam/internal/obs"
)

// This file holds the concurrency primitive shared by the levels that
// run independent work at once: the sweep's tasks (experiments), the
// grouping buckets (BuildGroupsCtx) and the ILS restarts
// (OptimizeILSCtx). Inside one search every candidate batch is scored
// serially, in index order, by scoreCandidates (engine.go).

// ParallelFor runs fn(i) for i in [0, n) on min(k, n) goroutines fed
// by a shared counter; k must be at least 1. Indices are handed out in
// increasing order, so fn(i) may block until fn(j) for some j < i has
// finished without deadlocking the pool: the lowest unfinished index
// never waits. Panics inside fn are captured and the one with the
// lowest index is re-raised on the caller's goroutine after all
// workers drain, so the panic surface is the same as in a serial run
// and the facade guard still applies.
func ParallelFor(k, n int, fn func(i int)) {
	if k > n {
		k = n
	}
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i := range panics {
		if panics[i] != nil {
			panic(panics[i])
		}
	}
}

// ParallelConfig bundles the concurrency, memoization and
// observability knobs of Solve. Options embeds it rather than listing
// the fields itself because the benchmark module e2ebench builds a
// ParallelConfig directly.
type ParallelConfig struct {
	// Workers bounds how many ILS restarts run at once: 0 means
	// runtime.GOMAXPROCS(0), 1 runs them one after another. Every
	// candidate batch is scored serially whatever the count, so a
	// single SI or baseline search does not depend on it.
	Workers int

	// CacheSize is the evaluation cache capacity in entries: 0 selects
	// DefaultCacheSize, negative disables memoization. An ILS run of R
	// restarts gives each restart a cache of CacheSize/R entries.
	CacheSize int

	// MaxEvals bounds the objective evaluations of the run; 0 means
	// unlimited. An exhausted budget ends the run like a cancelled
	// context: partial result, CauseBudget.
	MaxEvals int64

	// Trace collects the structured search-trace of the run: its
	// decisions, the same at every worker count. nil (the default)
	// disables tracing. The cache and evaluation counts are on
	// Result.Metrics and Result.Cache, not in the trace.
	Trace *obs.Tracer

	// Metrics collects the run's counters, gauges and phase-duration
	// histograms; a snapshot lands on Result.Metrics. nil disables
	// collection.
	Metrics *obs.Registry

	// Persist, when non-nil, backs the evaluation cache with a
	// persistent cache file: its entries seed the cache before the run
	// (counted as CacheStats.Loads, not hits) and every miss is
	// appended for the next process. Ignored when CacheSize is
	// negative. The CacheFile outlives the run — the caller owns its
	// lifecycle (a daemon keeps one file across jobs and restarts).
	Persist *CacheFile
}
