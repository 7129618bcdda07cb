package core

import "sitam/internal/tam"

// This file implements the memoized cost cache the engine scores its
// candidates through. The optimization loops of Fig. 6
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
// offsetting the memoization win on cold runs. A 64-bit collision in
// a cache of 2^15 entries has probability below 1e-10 per run;
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
const DefaultCacheSize = 1 << 15

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

	// Evictions counts flushes: the cache drops all its entries when
	// it reaches its capacity.
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

// CachedEvaluator memoizes an Evaluator by rail composition. It is not
// safe for concurrent use: every ILS restart scores through a fork of
// its own (forkEvaluator).
type CachedEvaluator struct {
	// Inner is the wrapped evaluator consulted on a miss.
	Inner Evaluator

	salt     uint64 // problem fingerprint mixed into every key
	capacity int
	entries  map[uint64]cacheEntry
	stats    CacheStats // Entries is filled in by Stats

	// persist, when non-nil, receives every freshly evaluated entry so
	// the next process can start warm (AttachPersistent). The first
	// failed append detaches the file: persistence is best-effort, the
	// in-memory cache stays authoritative.
	persist *CacheFile
}

// NewCachedEvaluator wraps inner with a memoization cache holding at
// most capacity compositions (DefaultCacheSize when capacity <= 0).
// A full cache is flushed whole: epoch eviction keeps the bookkeeping
// trivially deterministic.
func NewCachedEvaluator(inner Evaluator, capacity int) *CachedEvaluator {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &CachedEvaluator{Inner: inner, capacity: capacity, entries: make(map[uint64]cacheEntry)}
}

// AttachPersistent seeds the cache from cf's on-disk entries, in file
// order until the cache is full, and wires every future miss-store
// through to the file. Seeded entries count as Loads, never as Hits
// (see CacheStats.Loads). Call before the first Evaluate.
func (c *CachedEvaluator) AttachPersistent(cf *CacheFile) {
	if cf == nil {
		return
	}
	cf.mu.Lock()
	for _, key := range cf.order {
		if len(c.entries) >= c.capacity {
			break // a file can hold many caches' worth
		}
		if _, ok := c.entries[key]; !ok {
			c.stats.Loads++
		}
		c.entries[key] = cf.entries[key]
	}
	cf.mu.Unlock()
	c.persist = cf
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
	// The keying refresh cleans the stale rails, so an incremental
	// inner evaluator is told how many there were.
	inc, _ := c.Inner.(*IncrementalSIEvaluator)
	stale := 0
	if inc != nil {
		stale = a.DirtyCount()
	}
	key := a.Hash() ^ c.salt // Hash refreshes dirty rails: TimeIn and sub-hashes are now current
	if ent, ok := c.entries[key]; ok && ent.restore(a) {
		c.stats.Hits++
		return ent.obj, nil
	}
	c.stats.Misses++
	var obj int64
	var err error
	if inc != nil {
		obj, err = inc.evaluate(a, stale)
	} else {
		obj, err = c.Inner.Evaluate(a)
	}
	if err != nil {
		return 0, err
	}
	ent := cacheEntry{obj: obj, rails: make([]cachedRail, len(a.Rails))}
	for i, r := range a.Rails {
		ent.rails[i] = cachedRail{hash: r.Hash(), timeSI: r.TimeSI}
	}
	if len(c.entries) >= c.capacity {
		clear(c.entries)
		c.stats.Evictions++
	}
	c.entries[key] = ent
	if c.persist != nil && c.persist.Append(key, ent) != nil {
		// Best-effort persistence: a full disk or closed file must not
		// fail the evaluation or spam retries.
		c.persist = nil
	}
	return obj, nil
}

// Stats returns a snapshot of the cache counters.
func (c *CachedEvaluator) Stats() CacheStats {
	st := c.stats
	st.Entries = len(c.entries)
	return st
}

// Reset drops all entries and zeroes the counters (used by the
// cold-vs-warm benchmarks).
func (c *CachedEvaluator) Reset() {
	clear(c.entries)
	c.ResetStats()
}

// ResetStats zeroes the counters while keeping the cached entries, so
// warm-cache hit rates can be measured without the priming misses.
func (c *CachedEvaluator) ResetStats() { c.stats = CacheStats{} }
