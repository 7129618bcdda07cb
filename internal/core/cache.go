package core

import (
	"sync"
	"sync/atomic"

	"sitam/internal/obs"
	"sitam/internal/tam"
)

// This file implements the memoized cost cache behind the parallel
// candidate evaluation layer. The optimization loops of Fig. 6
// re-evaluate T_soc = T_soc_in + T_soc_si for thousands of candidate
// architectures, and the same rail composition recurs across merge
// rounds, the remaining-rails sweep, ILS local searches and winner
// reconstruction. The objective is a pure function of the rail
// composition — per-rail InTest times depend only on (cores, width),
// and Algorithm 1's T_soc_si and per-rail busy times are invariant
// under rail permutation (the group conflict relation is defined on
// rail identities, not indices) — so an order-independent composition
// key memoizes it exactly.
//
// The key is tam.Architecture.Hash(): the XOR of the rails' FNV-1a
// (width, cores) sub-hashes, maintained incrementally by the dirty-rail
// machinery. Keying therefore costs O(dirty rails) and zero
// allocations, replacing the sorted-composition string key whose
// build-and-sort overhead BENCH_parallel.json flagged as roughly
// offsetting the memoization win on cold runs. A 64-bit collision over
// a cache of at most 2^16 entries has probability ~1e-10 per run;
// lookups additionally verify the per-rail sub-hashes and fall back to
// a fresh evaluation on any mismatch, so a collision can cost
// performance but never correctness.
//
// The composition alone does not determine the cost: the SOC, the
// objective, the groups and the model do too. One engine's in-memory
// cache sees a single problem, but a persistent cache file is shared
// by every run and job that opens it, so Solve XORs a fingerprint of
// the problem (salt) into every key. An entry stored under another
// problem then sits under another key, and the sub-hash check keeps a
// cross-problem key collision from ever restoring a wrong cost.

// DefaultCacheSize is the entry capacity used when a CachedEvaluator
// is built with a non-positive capacity.
const DefaultCacheSize = 1 << 16

// CacheStats is a snapshot of a CachedEvaluator's counters.
type CacheStats struct {
	// Hits and Misses count Evaluate calls answered from the cache and
	// forwarded to the inner evaluator.
	Hits, Misses int64

	// Loads counts entries seeded from a persistent cache file
	// (AttachPersistent). Loads are deliberately NOT hits: a hit is an
	// Evaluate call the cache answered this run, a load is inventory
	// carried over from a previous process. Conflating them would let a
	// restarted run report a hit rate it never earned.
	Loads int64

	// Evictions counts epoch flushes: the cache drops all entries when
	// it reaches capacity.
	Evictions int64

	// Entries is the current number of cached compositions.
	Entries int
}

// HitRate returns the fraction of Evaluate calls answered from the
// cache, in [0, 1].
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cachedRail preserves the bookkeeping side effects of one rail's
// evaluation, keyed by the rail's composition sub-hash. TimeIn needs no
// entry: the keying Hash() call refreshes every rail's TimeIn already.
type cachedRail struct {
	hash   uint64
	timeSI int64
}

type cacheEntry struct {
	obj   int64
	rails []cachedRail // in the architecture's rail order at store time
}

// CachedEvaluator memoizes an Evaluator by rail composition. It is
// safe for concurrent use: the worker pool's candidate evaluations
// share one cache. Values are pure, so a racing double-miss stores the
// same entry twice and determinism is unaffected (only the hit/miss
// counters are timing-dependent under concurrency).
type CachedEvaluator struct {
	// Inner is the wrapped evaluator consulted on a miss.
	Inner Evaluator

	capacity     int
	salt         uint64 // problem fingerprint mixed into every key
	hits, misses atomic.Int64
	loads        atomic.Int64
	evictions    atomic.Int64
	mu           sync.Mutex
	entries      map[uint64]cacheEntry

	// persist, when non-nil, receives every freshly evaluated entry so
	// the next process can start warm (AttachPersistent). Append
	// failures drop the file silently: persistence is best-effort, the
	// in-memory cache stays authoritative.
	persist *CacheFile

	// sink receives per-lookup cache_hit/cache_miss events. Set only
	// for single-worker runs (Engine.configure): under concurrency
	// the hit/miss split is timing-dependent, which would break trace
	// determinism — the totals are always on the metrics snapshot.
	sink obs.Sink
}

// NewCachedEvaluator wraps inner with a memoization cache holding at
// most capacity compositions (DefaultCacheSize when capacity <= 0).
// When full, the cache is flushed whole — epoch eviction keeps the
// bookkeeping trivially deterministic and the steady-state hit rate
// recovers within one merge round.
func NewCachedEvaluator(inner Evaluator, capacity int) *CachedEvaluator {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &CachedEvaluator{
		Inner:    inner,
		capacity: capacity,
		entries:  make(map[uint64]cacheEntry),
	}
}

// AttachPersistent seeds the cache from cf's on-disk entries and wires
// every future miss-store through to the file. Seeded entries count as
// Loads, never as Hits (see CacheStats.Loads); a single cache_load
// event with the seeded count goes to the trace sink when one is
// attached — one deterministic event, so single-worker trace
// determinism is unaffected. Seeding stops at capacity. Call before
// the first Evaluate; the method is not safe concurrently with
// lookups.
func (c *CachedEvaluator) AttachPersistent(cf *CacheFile) {
	if cf == nil {
		return
	}
	cf.mu.Lock()
	n := 0
	for key, ent := range cf.entries {
		if len(c.entries) >= c.capacity {
			break
		}
		if _, ok := c.entries[key]; !ok {
			n++
		}
		c.entries[key] = ent
	}
	cf.mu.Unlock()
	c.persist = cf
	c.loads.Add(int64(n))
	if c.sink != nil {
		c.sink.Emit(obs.Event{Type: obs.CacheLoad, N: int64(n)})
	}
}

// restore replays the cached per-rail TimeSI bookkeeping onto a. It
// reports false — leaving a untouched — when the rails' sub-hash
// multiset does not match the entry, i.e. on an XOR hash collision.
//
// The common hit presents the rails in the same order they were stored
// (candidate generation is deterministic, so a revisited composition
// is laid out identically), which the aligned fast path verifies with
// one linear compare and no sorting anywhere. Permuted hits take a
// quadratic match with a use-once bitmask — rail counts are a few
// dozen, and the mask keeps duplicate sub-hashes (identical rails)
// honest. Architectures beyond 64 rails skip the permuted path and
// re-evaluate; correctness is unaffected.
func (ent *cacheEntry) restore(a *tam.Architecture) bool {
	if len(ent.rails) != len(a.Rails) {
		return false
	}
	rails := ent.rails
	aligned := true
	for i, r := range a.Rails {
		if rails[i].hash != r.Hash() {
			aligned = false
			break
		}
	}
	if aligned {
		for i, r := range a.Rails {
			r.SetTimeSI(rails[i].timeSI)
		}
		return true
	}
	if len(rails) > 64 {
		return false
	}
	var used uint64
	for _, r := range a.Rails {
		h := r.Hash()
		found := false
		for j := range rails {
			if used&(1<<uint(j)) == 0 && rails[j].hash == h {
				used |= 1 << uint(j)
				r.SetTimeSI(rails[j].timeSI)
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Evaluate implements Evaluator. On a hit it restores the per-rail
// TimeIn/TimeSI bookkeeping exactly as a fresh inner evaluation would
// have set it (TimeIn via the keying refresh, TimeSI from the entry);
// on a miss it forwards to the inner evaluator and caches the outcome.
// Errors are never cached.
func (c *CachedEvaluator) Evaluate(a *tam.Architecture) (int64, error) {
	key := a.Hash() ^ c.salt // Hash refreshes dirty rails: TimeIn and sub-hashes are now current
	c.mu.Lock()
	ent, ok := c.entries[key]
	c.mu.Unlock()
	if ok && ent.restore(a) {
		c.hits.Add(1)
		if c.sink != nil {
			c.sink.Emit(obs.Event{Type: obs.CacheHit})
		}
		return ent.obj, nil
	}
	c.misses.Add(1)
	if c.sink != nil {
		c.sink.Emit(obs.Event{Type: obs.CacheMiss})
	}
	obj, err := c.Inner.Evaluate(a)
	if err != nil {
		return 0, err
	}
	ent = cacheEntry{obj: obj, rails: make([]cachedRail, len(a.Rails))}
	for i, r := range a.Rails {
		ent.rails[i] = cachedRail{hash: r.Hash(), timeSI: r.TimeSI}
	}
	c.mu.Lock()
	if len(c.entries) >= c.capacity {
		c.entries = make(map[uint64]cacheEntry)
		c.evictions.Add(1)
	}
	c.entries[key] = ent
	persist := c.persist
	c.mu.Unlock()
	if persist != nil {
		if perr := persist.Append(key, ent); perr != nil {
			// Best-effort persistence: a full disk or closed file must
			// not fail the evaluation or spam retries.
			c.mu.Lock()
			c.persist = nil
			c.mu.Unlock()
		}
	}
	return obj, nil
}

// Stats returns a snapshot of the cache counters.
func (c *CachedEvaluator) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Loads:     c.loads.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// Reset drops all entries and zeroes the counters (used by the
// cold-vs-warm benchmarks).
func (c *CachedEvaluator) Reset() {
	c.mu.Lock()
	c.entries = make(map[uint64]cacheEntry)
	c.mu.Unlock()
	c.ResetStats()
}

// ResetStats zeroes the counters while keeping the cached entries, so
// warm-cache hit rates can be measured without the priming misses.
func (c *CachedEvaluator) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.loads.Store(0)
	c.evictions.Store(0)
}
