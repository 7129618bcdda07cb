package core

import (
	"context"
	"fmt"
	"sort"

	"sitam/internal/compaction"
	"sitam/internal/hypergraph"
	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// GroupingResult is the outcome of the two-dimensional compaction
// pipeline: the SI test groups ready for scheduling, plus the compacted
// patterns and statistics behind them.
type GroupingResult struct {
	// Groups holds the schedulable SI test groups: one per partition
	// part with at least one pattern, plus (for Parts > 1) a residual
	// group holding the patterns whose care cores span multiple parts.
	// The residual group, when present, is first.
	Groups []*sischedule.Group

	// GroupPatterns[i] holds the compacted patterns of Groups[i].
	GroupPatterns [][]*sifault.Pattern

	// PartOf maps core ID to partition part (0..Parts-1).
	PartOf map[int]int

	// Parts is the requested partition count g.
	Parts int

	// CutPatterns is the number of original patterns that fell into the
	// residual group (the weight of the hypergraph cut).
	CutPatterns int64

	// Stats aggregates the vertical compaction over all groups.
	Stats compaction.Stats

	// Partial reports that the compaction pipeline was degraded by a
	// done context: the partitioner skipped refinement and/or some
	// patterns were passed through uncompacted. The groups are still a
	// valid, schedulable cover of the full pattern set.
	Partial bool

	// Reason describes what was cut short when Partial is set.
	Reason string

	// Cause classifies the interruption when Partial is set.
	Cause StopCause
}

// TotalCompacted returns the total compacted pattern count across all
// groups.
func (g *GroupingResult) TotalCompacted() int {
	n := 0
	for _, ps := range g.GroupPatterns {
		n += len(ps)
	}
	return n
}

// GroupingOptions configures BuildGroupsCtx.
type GroupingOptions struct {
	// Parts is the number of hypergraph partition parts (the paper's
	// g). 1 disables horizontal compaction (pure pattern-count
	// reduction).
	Parts int

	// Seed drives the randomized partitioner.
	Seed int64

	// Tolerance is the partitioner's balance tolerance; zero uses the
	// partitioner default (0.10).
	Tolerance float64

	// Trace receives the grouping pipeline's search-trace events
	// (partitioning and per-group compaction spans); nil disables
	// tracing.
	Trace obs.Sink

	// CompactWorkers is the per-group compaction worker-pool size
	// passed through to compaction.GreedyWith: 0 keeps the serial
	// default (workers=1), negative uses runtime.GOMAXPROCS(0). The
	// worker count never changes a single output bit — sharding is
	// conflict-component exact — only wall-clock.
	CompactWorkers int

	// Metrics, when non-nil, receives the compaction shard-plan
	// counters and gauges (compact_shards, compact_shard_imbalance_pct,
	// ...).
	Metrics *obs.Registry
}

// compactWorkers maps the GroupingOptions convention (0 = serial) onto
// the compaction.Config one (<=0 = GOMAXPROCS).
func (o GroupingOptions) compactWorkers() int {
	switch {
	case o.CompactWorkers == 0:
		return 1
	case o.CompactWorkers < 0:
		return 0
	default:
		return o.CompactWorkers
	}
}

// BuildGroupsCtx runs the paper's two-dimensional SI test-set
// compaction (Section 3): it partitions the cores into opts.Parts
// groups with a hypergraph partitioner (vertices: cores weighted by WOC
// count; hyperedges: patterns connecting their care cores, weighted by
// multiplicity), classifies each pattern into the part containing all
// its care cores or into the residual group, and then compacts every
// group separately with the greedy clique-cover heuristic.
//
// It degrades gracefully under a done context: the partitioner falls
// back to unrefined greedy bisections and the per-group compaction
// passes remaining patterns through unmerged. The result is then
// marked Partial but remains a valid, schedulable grouping covering
// every input pattern. The context's error is returned only when it is
// done before any work started.
func BuildGroupsCtx(ctx context.Context, s *soc.SOC, patterns []*sifault.Pattern, opts GroupingOptions) (*GroupingResult, error) {
	if opts.Parts < 1 {
		return nil, fmt.Errorf("core: Parts must be >= 1, got %d", opts.Parts)
	}
	sp := sifault.NewSpace(s)
	cores := s.Cores()
	if opts.Parts > len(cores) {
		return nil, fmt.Errorf("core: Parts=%d exceeds core count %d", opts.Parts, len(cores))
	}
	// Caller-built patterns may reference positions outside the SOC's
	// WOC space; validate up front so bad input surfaces as an error
	// here instead of a panic inside the care-core scan below.
	for i, p := range patterns {
		if err := p.Validate(sp); err != nil {
			return nil, fmt.Errorf("core: pattern %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Vertex numbering: position order.
	vertexOf := make(map[int]int, len(cores))
	weights := make([]int64, len(cores))
	for i, c := range cores {
		vertexOf[c.ID] = i
		weights[i] = int64(c.WOC())
	}

	// Care-core sets per pattern, deduplicated into weighted hyperedges.
	careCores := make([][]int, len(patterns))
	edgeWeight := make(map[string]int64)
	edgePins := make(map[string][]int)
	for i, p := range patterns {
		cc := p.CareCores(sp)
		careCores[i] = cc
		pins := make([]int, len(cc))
		for j, id := range cc {
			pins[j] = vertexOf[id]
		}
		k := pinKey(pins)
		edgeWeight[k] += int64(p.Weight)
		if _, ok := edgePins[k]; !ok {
			edgePins[k] = pins
		}
	}

	assign := make([]int, len(cores)) // all zero for Parts == 1
	partitionCut := false
	if opts.Parts > 1 {
		h := hypergraph.New(weights)
		keys := make([]string, 0, len(edgePins))
		for k := range edgePins {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic edge order
		for _, k := range keys {
			if err := h.AddEdge(edgePins[k], edgeWeight[k]); err != nil {
				return nil, err
			}
		}
		var err error
		assign, _, partitionCut, err = hypergraph.PartitionKCtx(ctx, h, opts.Parts, hypergraph.Options{
			Seed:      opts.Seed,
			Tolerance: opts.Tolerance,
			Trace:     opts.Trace,
		})
		if err != nil {
			return nil, err
		}
	}

	res := &GroupingResult{Parts: opts.Parts, PartOf: make(map[int]int, len(cores))}
	for i, c := range cores {
		res.PartOf[c.ID] = assign[i]
	}

	// Classify patterns into parts; spanning patterns go to the
	// residual bucket.
	perPart := make([][]*sifault.Pattern, opts.Parts)
	var residual []*sifault.Pattern
	for i, p := range patterns {
		cc := careCores[i]
		part := assign[vertexOf[cc[0]]]
		spans := false
		for _, id := range cc[1:] {
			if assign[vertexOf[id]] != part {
				spans = true
				break
			}
		}
		if spans {
			residual = append(residual, p)
			res.CutPatterns += int64(p.Weight)
		} else {
			perPart[part] = append(perPart[part], p)
		}
	}

	// Compact each bucket separately and build schedulable groups. The
	// residual group comes first: it involves (nearly) every core, so
	// scheduling it early keeps Algorithm 1's packing tight.
	compactionCut := false
	addGroup := func(name string, ps []*sifault.Pattern) {
		if len(ps) == 0 {
			return
		}
		comp, stats, cut := compaction.GreedyWith(ctx, sp, ps, compaction.Config{
			Workers: opts.compactWorkers(),
			Sink:    opts.Trace,
			Group:   name,
			Metrics: opts.Metrics,
		})
		compactionCut = compactionCut || cut
		res.Stats.Original += stats.Original
		res.Stats.Compacted += stats.Compacted
		res.Stats.Passes += stats.Passes
		coreSet := make(map[int]struct{})
		for _, p := range comp {
			for _, id := range p.CareCores(sp) {
				coreSet[id] = struct{}{}
			}
		}
		ids := make([]int, 0, len(coreSet))
		for id := range coreSet {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		res.Groups = append(res.Groups, &sischedule.Group{
			Name:     name,
			Cores:    ids,
			Patterns: int64(len(comp)),
		})
		res.GroupPatterns = append(res.GroupPatterns, comp)
	}
	if opts.Parts > 1 {
		addGroup("RES", residual)
	}
	for part := 0; part < opts.Parts; part++ {
		addGroup(fmt.Sprintf("G%d", part+1), perPart[part])
	}
	if partitionCut || compactionCut {
		res.Partial = true
		res.Cause = CauseOf(ctx.Err())
		switch {
		case partitionCut && compactionCut:
			res.Reason = stopReason(ctx.Err(), "partitioning and compaction")
		case partitionCut:
			res.Reason = stopReason(ctx.Err(), "partitioning")
		default:
			res.Reason = stopReason(ctx.Err(), "compaction")
		}
	}
	return res, nil
}

func pinKey(pins []int) string {
	b := make([]byte, 0, len(pins)*3)
	for _, p := range pins {
		b = append(b, byte(p), byte(p>>8), byte(p>>16))
	}
	return string(b)
}

// Finish assembles the Result of an optimization run: it evaluates the
// final architecture's breakdown and SI schedule under cons, the
// groups' compiled constraints (emitting the si_group_scheduled events
// when the engine traces), snapshots the cache counters and metrics
// onto the result, and carries the anytime status. Solve returns
// through it.
func (e *Engine) Finish(arch *tam.Architecture, st Status, groups []*sischedule.Group, m sischedule.Model, cons *sischedule.Constraints) (*Result, error) {
	bd, sched, err := evaluateBreakdown(arch, groups, m, cons, e.Trace)
	if err != nil {
		return nil, err
	}
	if scheduleSelfCheck {
		if err := selfCheckSchedule(arch, groups, sched, cons); err != nil {
			return nil, fmt.Errorf("core: schedule self-check: %w", err)
		}
	}
	res := &Result{
		Architecture: arch, Breakdown: bd, Schedule: sched,
		Partial: st.Partial, Reason: st.Reason, Cause: st.Cause,
	}
	if e.cache != nil {
		res.Cache = e.cache.Stats()
	}
	res.Metrics = e.snapshotMetrics()
	return res, nil
}

// snapshotMetrics copies the registry (when attached) into plain data
// and adds the counters every run has regardless of a registry: total
// evaluations, the cache totals, and the incremental evaluator's
// recompute accounting.
func (e *Engine) snapshotMetrics() *obs.Snapshot {
	snap := e.Metrics.Snapshot() // nil-safe: empty snapshot without a registry
	snap.Counters["evals"] = e.evalCount()
	if e.cache != nil {
		st := e.cache.Stats()
		snap.Counters["cache_hits"] = st.Hits
		snap.Counters["cache_misses"] = st.Misses
		snap.Counters["cache_loads"] = st.Loads
		snap.Counters["cache_evictions"] = st.Evictions
		snap.Gauges["cache_entries"] = int64(st.Entries)
	}
	if inc, ok := innerEvaluator(e.Eval).(*IncrementalSIEvaluator); ok {
		st := inc.Stats()
		snap.Counters["eval_dirty_rails"] = st.DirtyRails
		snap.Counters["eval_rails_recomputed"] = st.RailsRecomputed
		snap.Counters["eval_rails_memoized"] = st.RailsMemoized
		snap.Counters["eval_groups_recomputed"] = st.GroupsRecomputed
		snap.Counters["eval_groups_memoized"] = st.GroupsMemoized
	}
	return snap
}

// innerEvaluator unwraps the memoization layer, exposing the evaluator
// the engine ultimately scores with.
func innerEvaluator(eval Evaluator) Evaluator {
	if c, ok := eval.(*CachedEvaluator); ok {
		return c.Inner
	}
	return eval
}

// Result is the outcome of a TAM optimization run: the designed
// architecture, its time breakdown and the SI schedule on it.
type Result struct {
	Architecture *tam.Architecture
	Breakdown    Breakdown
	Schedule     *sischedule.Schedule

	// Partial reports that the optimization was interrupted by a done
	// context and Architecture is the best solution found so far rather
	// than the converged one. It is still a valid, schedulable
	// architecture; Breakdown and Schedule describe it exactly.
	Partial bool

	// Reason describes what was interrupted when Partial is set, e.g.
	// "deadline exceeded during bottom-up merge".
	Reason string

	// Cause classifies the interruption when Partial is set: deadline
	// expiry, cancellation or budget exhaustion.
	Cause StopCause

	// Cache holds the evaluation-cache counters of the run, when the
	// optimization ran with memoization; zero otherwise.
	Cache CacheStats

	// Metrics is the run's metrics snapshot. Always non-nil on results
	// assembled by the engine: it carries at least the "evals" counter
	// and, with memoization, the cache totals; runs configured with a
	// metrics registry add the pool counters and phase-duration
	// histograms.
	Metrics *obs.Snapshot
}
