package compaction

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"sitam/internal/obs"
	"sitam/internal/sifault"
)

// Config configures a sharded compaction run (GreedyWith). The zero
// value is valid: automatic worker count, default shard cap, no
// tracing.
type Config struct {
	// Workers is the compaction worker-pool size. <= 0 uses
	// runtime.GOMAXPROCS(0). The worker count NEVER affects the output:
	// the shard plan depends only on the pattern corpus, workers only
	// drain the shard queue.
	Workers int

	// MaxShards caps the shard count of the plan; <= 0 uses
	// DefaultMaxShards. Like Workers, it changes scheduling granularity
	// and balance, not output bytes — but unlike Workers it IS part of
	// the plan, so differential fixtures pin it at the default.
	MaxShards int

	// Sink receives the compaction phase span and deadline events; nil
	// traces nothing.
	Sink obs.Sink

	// Group labels trace events with the pattern group being compacted.
	Group string

	// Metrics, when non-nil, receives the shard-plan counters and
	// gauges (compact_shards, compact_shard_patterns_max/min,
	// compact_shard_imbalance_pct).
	Metrics *obs.Registry
}

// DefaultMaxShards bounds the shard plan: enough slack for large
// worker counts to balance, small enough that per-shard merge state
// stays negligible.
const DefaultMaxShards = 64

// GreedyWith is the production compaction pass: Greedy's first-fit
// clique cover, sharded, parallel, traced and cancellable. The corpus is
// partitioned into conflict-closed shards (sifault.PlanShards), each
// shard is first-fit compacted independently by a bounded worker pool,
// and the per-shard bins are merged index-by-index in canonical shard
// order. Because serial first-fit assigns every pattern the bin index
// its conflict component alone would assign (see the component theorem
// in internal/sifault/shard.go), the merged output is byte-identical
// to the serial result at ANY worker count — locked by the
// bitset-vs-scalar differential and fuzz suites at workers {1,2,8}.
//
// The context is checked before each super-pass of 64 fused seed
// passes (engine.go). A cut degrades
// gracefully: bins materialized before it are followed by the unmerged
// remainder in input order (sharing the input pattern values, which
// are never modified), so the output is still a valid, less compacted
// cover, and the cut flag is returned. A run cancelled before any work
// emits the input unchanged. With a sink, the run is bracketed in a
// "compaction" phase span whose PhaseEnd carries the compacted count,
// and a cut emits a deadline_hit event labeled with cfg.Group.
func GreedyWith(ctx context.Context, sp *sifault.Space, patterns []*sifault.Pattern, cfg Config) ([]*sifault.Pattern, Stats, bool) {
	span := obs.Span(cfg.Sink, "compaction")
	out, stats, cut := greedyWith(ctx, sp, patterns, cfg)
	if cfg.Sink != nil {
		if cut {
			cfg.Sink.Emit(obs.Event{Type: obs.DeadlineHit, Phase: "compaction", Group: cfg.Group, Cause: obs.CtxCause(ctx.Err())})
		}
		span.End(0, int64(stats.Compacted))
	}
	return out, stats, cut
}

type shardResult struct {
	bins []*sifault.Pattern
	raw  []int32 // global indices of a cut run's pass-through remainder
	cut  bool
}

func greedyWith(ctx context.Context, sp *sifault.Space, patterns []*sifault.Pattern, cfg Config) ([]*sifault.Pattern, Stats, bool) {
	var original int64
	for _, p := range patterns {
		original += int64(p.Weight)
	}
	if len(patterns) == 0 {
		return nil, Stats{Original: original}, false
	}

	maxShards := cfg.MaxShards
	if maxShards <= 0 {
		maxShards = DefaultMaxShards
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	plan := sifault.PlanShards(sp, patterns, maxShards)
	reportShardMetrics(cfg.Metrics, plan)

	results := make([]shardResult, len(plan.Shards))
	runShard := func(si int) {
		e := newFFEngine(sp, patterns, plan.Shards[si])
		bins, raw, cut := e.run(ctx)
		results[si] = shardResult{bins: bins, raw: raw, cut: cut}
	}
	if workers == 1 || len(plan.Shards) == 1 {
		for si := range plan.Shards {
			runShard(si)
		}
	} else {
		if workers > len(plan.Shards) {
			workers = len(plan.Shards)
		}
		var wg sync.WaitGroup
		queue := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range queue {
					runShard(si)
				}
			}()
		}
		for si := range plan.Shards {
			queue <- si
		}
		close(queue)
		wg.Wait()
	}

	// Canonical merge: global bin b is the disjoint union of every
	// shard's local bin b (component theorem), so the output is the
	// bin-wise merge in shard order, then any cut remainders replayed
	// in input order.
	nBins := 0
	for si := range results {
		if n := len(results[si].bins); n > nBins {
			nBins = n
		}
	}
	cut := false
	var rawTotal int
	for si := range results {
		cut = cut || results[si].cut
		rawTotal += len(results[si].raw)
	}
	out := make([]*sifault.Pattern, 0, nBins+rawTotal)
	scratch := make([]*sifault.Pattern, 0, len(results))
	for b := 0; b < nBins; b++ {
		scratch = scratch[:0]
		for si := range results {
			if b < len(results[si].bins) {
				scratch = append(scratch, results[si].bins[b])
			}
		}
		if len(scratch) == 1 {
			out = append(out, scratch[0])
		} else {
			out = append(out, mergeDisjoint(scratch))
		}
	}
	if rawTotal > 0 {
		raw := make([]int32, 0, rawTotal)
		for si := range results {
			raw = append(raw, results[si].raw...)
		}
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		for _, gi := range raw {
			out = append(out, patterns[gi])
		}
	}
	return out, Stats{Original: original, Compacted: len(out), Passes: nBins}, cut
}

// mergeDisjoint merges one global bin's per-shard patterns. Shards are
// conflict-closed, so the care position sets are disjoint (a shared
// position would have glued its users into one component) and any bus
// line present in two shards carries the same driver (ditto for a
// mixed-driver line); the merge is a k-way merge by position / line
// with equal lines deduplicated.
func mergeDisjoint(ps []*sifault.Pattern) *sifault.Pattern {
	var weight int64
	nCare, nBus := 0, 0
	for _, p := range ps {
		weight += int64(p.Weight)
		nCare += len(p.Care)
		nBus += len(p.Bus)
	}
	m := &sifault.Pattern{
		VictimPos:  -1,
		VictimCore: -1,
		Weight:     int32(weight),
	}
	m.Care = make([]sifault.Care, 0, nCare)
	heads := make([]int, len(ps))
	for {
		best := -1
		var bestPos int32
		for i, p := range ps {
			if heads[i] < len(p.Care) {
				if pos := p.Care[heads[i]].Pos; best < 0 || pos < bestPos {
					best, bestPos = i, pos
				}
			}
		}
		if best < 0 {
			break
		}
		m.Care = append(m.Care, ps[best].Care[heads[best]])
		heads[best]++
	}
	if nBus > 0 {
		m.Bus = make([]sifault.BusUse, 0, nBus)
		for i := range heads {
			heads[i] = 0
		}
		for {
			best := -1
			var bestLine int32
			for i, p := range ps {
				if heads[i] < len(p.Bus) {
					if l := p.Bus[heads[i]].Line; best < 0 || l < bestLine {
						best, bestLine = i, l
					}
				}
			}
			if best < 0 {
				break
			}
			u := ps[best].Bus[heads[best]]
			heads[best]++
			if n := len(m.Bus); n == 0 || m.Bus[n-1].Line != u.Line {
				m.Bus = append(m.Bus, u)
			}
		}
	}
	return m
}

// reportShardMetrics records the shard plan's shape: how many shards,
// the component count behind them, and the pattern-count imbalance
// (largest/smallest shard and max-over-mean in percent) — the signal
// for "one giant conflict component is serializing the run".
func reportShardMetrics(m *obs.Registry, plan sifault.ShardPlan) {
	if m == nil || len(plan.Shards) == 0 {
		return
	}
	min, max, total := len(plan.Shards[0]), 0, 0
	for _, s := range plan.Shards {
		n := len(s)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
		total += n
	}
	m.Counter("compact_runs").Add(1)
	m.Gauge("compact_shards").Set(int64(len(plan.Shards)))
	m.Gauge("compact_components").Set(int64(plan.Components))
	m.Gauge("compact_shard_patterns_max").Set(int64(max))
	m.Gauge("compact_shard_patterns_min").Set(int64(min))
	mean := float64(total) / float64(len(plan.Shards))
	m.Gauge("compact_shard_imbalance_pct").Set(int64(float64(max) / mean * 100))
}
