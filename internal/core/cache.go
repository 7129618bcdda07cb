package core

import (
	"sync"
	"sync/atomic"

	"sitam/internal/tam"
)

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

// cacheShards is the most shards a CachedEvaluator splits its entries
// over. Each shard has its own lock, map and counters, so concurrent
// evaluations of different compositions almost never take the same
// lock; a cache of fewer entries gets one shard per entry, so the
// shards' capacities still sum to the cache's.
const cacheShards = 64

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

	// Evictions counts epoch flushes: a shard drops all its entries
	// when it reaches its share of the capacity.
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

// cacheShard is one independently locked part of a CachedEvaluator:
// the entries whose keys map to it, flushed whole when they reach the
// shard's capacity, and the lookups it answered and missed.
type cacheShard struct {
	mu                      sync.Mutex
	entries                 map[uint64]cacheEntry
	capacity                int
	hits, misses, evictions int64
	_                       [64]byte // keeps neighbouring shards' locks off one cache line
}

// CachedEvaluator memoizes an Evaluator by rail composition. It is
// safe for concurrent use: concurrent ILS restarts share one cache,
// split into shards so that they rarely contend. Values are pure, so a racing double-miss stores
// the same entry twice and determinism is unaffected (only the
// hit/miss counters are timing-dependent under concurrency).
type CachedEvaluator struct {
	// Inner is the wrapped evaluator consulted on a miss.
	Inner Evaluator

	salt   uint64       // problem fingerprint mixed into every key
	shards []cacheShard // fixed at construction; see shard
	loads  atomic.Int64

	// persist, when non-nil, receives every freshly evaluated entry so
	// the next process can start warm (AttachPersistent). The first
	// failed append detaches the file: persistence is best-effort, the
	// in-memory cache stays authoritative.
	persist atomic.Pointer[CacheFile]
}

// NewCachedEvaluator wraps inner with a memoization cache holding at
// most capacity compositions (DefaultCacheSize when capacity <= 0).
// The capacity is split evenly over the shards, and a full shard is
// flushed whole — epoch eviction keeps the bookkeeping trivially
// deterministic, and a flush costs only that shard's share of the
// entries.
func NewCachedEvaluator(inner Evaluator, capacity int) *CachedEvaluator {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	n := min(capacity, cacheShards)
	c := &CachedEvaluator{Inner: inner, shards: make([]cacheShard, n)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = capacity / n
		if i < capacity%n {
			sh.capacity++
		}
		sh.entries = make(map[uint64]cacheEntry)
	}
	return c
}

// shard returns the shard holding key.
func (c *CachedEvaluator) shard(key uint64) *cacheShard {
	return &c.shards[(spread(key)>>32)%uint64(len(c.shards))]
}

// spread multiplies a composition hash by 2^64/φ (Fibonacci hashing),
// so that every bit of the product depends on the hash's low bits. Its
// high bits pick a cache shard or counter stripe; those of the hash
// itself barely vary, because an FNV-1a product over small integers
// carries their differences mostly in its low bits.
func spread(h uint64) uint64 { return h * 0x9E3779B97F4A7C15 }

// AttachPersistent seeds the cache from cf's on-disk entries and wires
// every future miss-store through to the file. Seeded entries count as
// Loads, never as Hits (see CacheStats.Loads). A shard stops taking
// seeds at its capacity. Call before the first Evaluate.
func (c *CachedEvaluator) AttachPersistent(cf *CacheFile) {
	if cf == nil {
		return
	}
	room := 0
	for i := range c.shards {
		room += c.shards[i].capacity
	}
	cf.mu.Lock()
	n := 0
	for key, ent := range cf.entries {
		if n == room {
			break // every shard is full; a file can hold many caches' worth
		}
		sh := c.shard(key)
		sh.mu.Lock()
		if _, ok := sh.entries[key]; ok || len(sh.entries) < sh.capacity {
			if !ok {
				n++
			}
			sh.entries[key] = ent
		}
		sh.mu.Unlock()
	}
	cf.mu.Unlock()
	c.persist.Store(cf)
	c.loads.Add(int64(n))
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
	sh := c.shard(key)
	sh.mu.Lock()
	ent, ok := sh.entries[key]
	hit := ok && ent.restore(a)
	if hit {
		sh.hits++
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	if hit {
		return ent.obj, nil
	}
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
	ent = cacheEntry{obj: obj, rails: make([]cachedRail, len(a.Rails))}
	for i, r := range a.Rails {
		ent.rails[i] = cachedRail{hash: r.Hash(), timeSI: r.TimeSI}
	}
	sh.mu.Lock()
	if len(sh.entries) >= sh.capacity {
		clear(sh.entries)
		sh.evictions++
	}
	sh.entries[key] = ent
	sh.mu.Unlock()
	if cf := c.persist.Load(); cf != nil {
		if perr := cf.Append(key, ent); perr != nil {
			// Best-effort persistence: a full disk or closed file must
			// not fail the evaluation or spam retries. Workers failing
			// on the same file together detach it once, and never a
			// file attached after it.
			c.persist.CompareAndSwap(cf, nil)
		}
	}
	return obj, nil
}

// Stats returns a snapshot of the cache counters, summed over the
// shards.
func (c *CachedEvaluator) Stats() CacheStats {
	st := CacheStats{Loads: c.loads.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return st
}

// Reset drops all entries and zeroes the counters (used by the
// cold-vs-warm benchmarks).
func (c *CachedEvaluator) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		clear(sh.entries)
		sh.mu.Unlock()
	}
	c.ResetStats()
}

// ResetStats zeroes the counters while keeping the cached entries, so
// warm-cache hit rates can be measured without the priming misses.
func (c *CachedEvaluator) ResetStats() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.hits, sh.misses, sh.evictions = 0, 0, 0
		sh.mu.Unlock()
	}
	c.loads.Store(0)
}
