package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sitam/internal/obs"
	"sitam/internal/tam"
)

// This file implements the parallel candidate evaluation layer: the
// merge candidates of mergeTAMs, the per-rail trials of
// distributeFreeWires, the move candidates of coreReshuffle and
// independent ILS restarts are all mutually independent, so they fan
// out across a bounded worker pool. Selection stays byte-identical to
// a serial run: every batch is enumerated in the serial iteration
// order, all candidates are scored, and the reduction walks the
// results in that order applying the serial comparison — so the winner
// (and every tie-break) is the one the serial loop would have picked.

// ParallelEvaluator fans independent candidate evaluations across a
// bounded worker pool. The zero value and a nil pointer both evaluate
// serially on the calling goroutine.
type ParallelEvaluator struct {
	// Workers bounds the number of concurrent candidate evaluations:
	// 0 means runtime.GOMAXPROCS(0), 1 evaluates serially, larger
	// values cap the pool explicitly.
	Workers int

	// Pool counters, nil unless a metrics registry was attached (see
	// Engine.configure). busyNS sums per-candidate evaluation time
	// across workers and wallNS the batches' elapsed time, so
	// busy/(wall*workers) is the pool utilization. Timestamps are
	// taken only when timed is set.
	batches, candidates *obs.Counter
	busyNS, wallNS      *obs.Counter
	timed               bool
}

// workers resolves the effective pool size.
func (p *ParallelEvaluator) workers() int {
	if p == nil {
		return 1
	}
	if p.Workers > 0 {
		return p.Workers
	}
	if p.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// candResult is one candidate's score: the objective, an auxiliary
// metric some reductions need (e.g. the widened rail's utilized time
// in distributeFreeWires), and the evaluation error if any.
type candResult struct {
	obj int64
	aux int64
	err error
}

// parallelFor runs fn(i) for i in [0, n) on k goroutines fed by a
// shared counter. fn receives the worker index so callers can keep
// per-worker scratch state. Panics inside fn are captured and the one
// with the lowest candidate index is re-raised on the caller's
// goroutine after all workers drain, so the engine's panic surface is
// the same as in a serial run and the facade guard still applies.
func parallelFor(k, n int, fn func(worker, i int)) {
	if k > n {
		k = n
	}
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func(worker int) {
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
					fn(worker, i)
				}()
			}
		}(w)
	}
	wg.Wait()
	for i := range panics {
		if panics[i] != nil {
			panic(panics[i])
		}
	}
}

// mapCandidates scores n candidate architectures derived from base.
// job receives a scratch architecture already reset to a copy of base
// plus the candidate index; it must mutate only the scratch (each
// worker owns one scratch, reused across its candidates). The context
// is checked before every candidate, serial or parallel.
//
// The returned slice is index-aligned with the candidates. On error
// the result is nil and the error is the one the serial loop would
// have surfaced first: results are scanned in candidate order and the
// lowest-index error wins, so error propagation is deterministic for
// deterministic evaluators.
func (p *ParallelEvaluator) mapCandidates(ctx context.Context, base *tam.Architecture, n int, job func(cand *tam.Architecture, i int) (int64, int64, error)) ([]candResult, error) {
	if n == 0 {
		return nil, nil
	}
	timed := p != nil && p.timed
	var wallStart time.Time
	if timed {
		wallStart = time.Now() //sitlint:allow detrand — wall/busy profiling metrics only, never the objective
	}
	k := p.workers()
	if k <= 1 || n == 1 {
		scratch := &tam.Architecture{}
		res := make([]candResult, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			scratch.CopyFrom(base)
			obj, aux, err := job(scratch, i)
			if err != nil {
				return nil, err
			}
			res[i] = candResult{obj: obj, aux: aux}
		}
		if timed {
			wall := int64(time.Since(wallStart))
			p.busyNS.Add(wall) // one goroutine: busy time is wall time
			p.wallNS.Add(wall)
			p.batches.Inc()
			p.candidates.Add(int64(n))
		}
		return res, nil
	}
	res := make([]candResult, n)
	scratches := make([]*tam.Architecture, k)
	busy := make([]int64, k)
	parallelFor(k, n, func(worker, i int) {
		if err := ctx.Err(); err != nil {
			res[i].err = err
			return
		}
		scratch := scratches[worker]
		if scratch == nil {
			scratch = &tam.Architecture{}
			scratches[worker] = scratch
		}
		scratch.CopyFrom(base)
		var t0 time.Time
		if timed {
			t0 = time.Now() //sitlint:allow detrand — per-candidate busy-time profiling only, never the objective
		}
		res[i].obj, res[i].aux, res[i].err = job(scratch, i)
		if timed {
			busy[worker] += int64(time.Since(t0))
		}
	})
	if timed {
		for _, b := range busy {
			p.busyNS.Add(b)
		}
		p.wallNS.Add(int64(time.Since(wallStart)))
		p.batches.Inc()
		p.candidates.Add(int64(n))
	}
	for i := range res {
		if res[i].err != nil {
			return nil, res[i].err
		}
	}
	return res, nil
}

// rebuild reconstructs the winning candidate: jobs only score
// candidates into per-worker scratches, so the selected architecture
// is rebuilt once from the base — one clone per improving batch
// instead of one per candidate. With a memoized evaluator the
// re-evaluation inside job is a cache hit.
func rebuild(base *tam.Architecture, i int, job func(cand *tam.Architecture, i int) (int64, int64, error)) (*tam.Architecture, error) {
	cand := base.Clone()
	if _, _, err := job(cand, i); err != nil {
		return nil, err
	}
	return cand, nil
}

// ParallelConfig bundles the concurrency, memoization and
// observability knobs of Solve. Options embeds it rather than listing
// the fields itself because the benchmark module e2ebench builds a
// ParallelConfig directly.
type ParallelConfig struct {
	// Workers bounds concurrent candidate evaluations: 0 means
	// runtime.GOMAXPROCS(0), 1 runs serially.
	Workers int

	// CacheSize is the evaluation cache capacity in entries: 0 selects
	// DefaultCacheSize, negative disables memoization.
	CacheSize int

	// MaxEvals bounds the objective evaluations of the run; 0 means
	// unlimited. An exhausted budget ends the run like a cancelled
	// context: partial result, CauseBudget.
	MaxEvals int64

	// Trace collects the structured search-trace of the run. nil (the
	// default) disables tracing. At Workers==1 the trace additionally
	// carries per-lookup cache hit/miss events; under concurrency the
	// hit/miss split is timing-dependent, so it is metrics-only.
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
