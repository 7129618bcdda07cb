package core

import (
	"context"
	"fmt"
	"runtime"
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

	// GroupPatterns[i] holds the compacted patterns of Groups[i] when
	// GroupingOptions.KeepPatterns was set, and is nil otherwise:
	// Groups[i].Patterns already counts them, and building them costs
	// memory that only a caller writing them out needs.
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
	for _, grp := range g.Groups {
		n += int(grp.Patterns)
	}
	return n
}

// GroupingOptions configures BuildGroupsCtx. Only Parts must be set;
// the zero value of every other field groups untraced, on GOMAXPROCS
// compaction workers, counting the compacted patterns without keeping
// them.
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

	// CompactWorkers bounds the compaction goroutines: 0 or negative
	// uses runtime.GOMAXPROCS(0), 1 compacts serially. BuildGroupsCtx
	// packs the patterns in chunks on that many goroutines, and the
	// buckets (RES, G1…Gg) compact concurrently, one goroutine each.
	// The count never changes a single output bit or the trace —
	// chunks join and buckets merge in order — only wall-clock.
	CompactWorkers int

	// Metrics, when non-nil, receives the compact_runs counter: one
	// count per compacted group.
	Metrics *obs.Registry

	// KeepPatterns builds the compacted patterns into
	// GroupingResult.GroupPatterns. Without it the first-fit engine
	// only counts them, which is all scheduling needs; the groups,
	// statistics and trace are the same either way.
	KeepPatterns bool
}

// BuildGroupsCtx runs the paper's two-dimensional SI test-set
// compaction (Section 3): it partitions the cores into opts.Parts
// groups with a hypergraph partitioner (vertices: cores weighted by WOC
// count; hyperedges: patterns connecting their care cores, weighted by
// multiplicity), classifies each pattern into the part containing all
// its care cores or into the residual group, and then compacts every
// group separately with the greedy clique-cover heuristic. It is
// NewCorpus followed by Corpus.Group.
//
// It degrades gracefully under a done context: the partitioner falls
// back to unrefined greedy bisections and the per-group compaction
// passes remaining patterns through unmerged. The result is then
// marked Partial but remains a valid, schedulable grouping covering
// every input pattern. The context's error is returned only when it is
// done before any work started.
func BuildGroupsCtx(ctx context.Context, s *soc.SOC, patterns []*sifault.Pattern, opts GroupingOptions) (*GroupingResult, error) {
	if err := checkParts(s, opts.Parts); err != nil {
		return nil, err
	}
	c, err := NewCorpus(s, patterns, opts.CompactWorkers)
	if err != nil {
		return nil, err
	}
	return c.Group(ctx, opts)
}

// Corpus is an SI pattern set packed once (compaction.Corpus)
// together with its care-core hypergraph: all that the groupings of
// one pattern set share. Group runs one grouping from it; a Corpus is
// read-only, so groupings may run concurrently. It keeps no pattern.
type Corpus struct {
	s      *soc.SOC
	packed *compaction.Corpus
	h      *hypergraph.Hypergraph
}

// NewCorpus validates and packs the patterns for SOC s on at most
// workers goroutines (0 or negative: GOMAXPROCS), and builds the
// hypergraph every grouping partitions: one vertex per core in position
// order, weighted by its WOC count, and one hyperedge per distinct set
// of care cores, weighted by the total weight of its patterns. The
// corpus is the same at any worker count; the error names the first
// invalid pattern.
func NewCorpus(s *soc.SOC, patterns []*sifault.Pattern, workers int) (*Corpus, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	packed, err := compaction.NewCorpus(sifault.NewSpace(s), patterns, workers)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return withHypergraph(s, packed)
}

// GenerateCorpus draws cfg's patterns for s straight into a corpus
// (compaction.GenerateCorpus), the corpus NewCorpus builds from
// sifault.GenerateCtx's patterns, and builds its hypergraph. Like
// GenerateCtx it is anytime: a done context cuts the draws short and
// the corpus of the patterns drawn comes back with the cut flag set;
// the context's error comes back only when it was done before the
// first draw.
func GenerateCorpus(ctx context.Context, s *soc.SOC, cfg sifault.GenConfig) (*Corpus, bool, error) {
	packed, cut, err := compaction.GenerateCorpus(ctx, sifault.NewSpace(s), cfg)
	if err != nil {
		return nil, false, err
	}
	c, err := withHypergraph(s, packed)
	return c, cut, err
}

// withHypergraph builds the hypergraph of a packed corpus.
func withHypergraph(s *soc.SOC, packed *compaction.Corpus) (*Corpus, error) {
	cores := s.Cores()
	weights := make([]int64, len(cores))
	for i, c := range cores {
		weights[i] = int64(c.WOC())
	}
	// Hyperedge pins are vertices in core-ID order; edges go in by the
	// order of their pin keys, which fixes the partitioner's input.
	type edge struct {
		key    string
		pins   []int
		weight int64
	}
	sets := packed.CareSets()
	edges := make([]edge, len(sets))
	for i, set := range sets {
		pins := make([]int, len(set.Blocks))
		for j, v := range set.Blocks {
			pins[j] = int(v)
		}
		sort.Slice(pins, func(a, b int) bool { return cores[pins[a]].ID < cores[pins[b]].ID })
		edges[i] = edge{key: pinKey(pins), pins: pins, weight: set.Weight}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].key < edges[b].key })
	h := hypergraph.New(weights)
	for _, e := range edges {
		if err := h.AddEdge(e.pins, e.weight); err != nil {
			return nil, err
		}
	}
	return &Corpus{s: s, packed: packed, h: h}, nil
}

// Len returns the number of patterns in the corpus.
func (c *Corpus) Len() int { return c.packed.Len() }

// checkParts rejects a partition count outside [1, cores of s].
func checkParts(s *soc.SOC, parts int) error {
	if parts < 1 {
		return fmt.Errorf("core: Parts must be >= 1, got %d", parts)
	}
	if n := len(s.Cores()); parts > n {
		return fmt.Errorf("core: Parts=%d exceeds core count %d", parts, n)
	}
	return nil
}

// Group runs one grouping of the corpus with opts, as BuildGroupsCtx
// describes: it partitions the shared hypergraph, gives every bucket
// (RES, G1…Gg) the index list of its patterns and compacts the buckets
// on at most opts.CompactWorkers goroutines.
func (c *Corpus) Group(ctx context.Context, opts GroupingOptions) (*GroupingResult, error) {
	if err := checkParts(c.s, opts.Parts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cores := c.s.Cores()
	assign := make([]int, len(cores)) // all zero for Parts == 1
	partitionCut := false
	if opts.Parts > 1 {
		var err error
		assign, _, partitionCut, err = hypergraph.PartitionKCtx(ctx, c.h, opts.Parts, hypergraph.Options{
			Seed:      opts.Seed,
			Tolerance: opts.Tolerance,
			Trace:     opts.Trace,
		})
		if err != nil {
			return nil, err
		}
	}

	res := &GroupingResult{Parts: opts.Parts, PartOf: make(map[int]int, len(cores))}
	for i, cr := range cores {
		res.PartOf[cr.ID] = assign[i]
	}

	// Classify care sets into buckets: RES for the sets that span
	// parts, then one per part. The residual group comes first: it
	// involves (nearly) every core, so scheduling it early keeps
	// Algorithm 1's packing tight.
	buckets := make([]*bucket, opts.Parts+1)
	for i := range buckets {
		buckets[i] = &bucket{name: "RES", inCore: make([]bool, len(cores))}
		if i > 0 {
			buckets[i].name = fmt.Sprintf("G%d", i)
		}
	}
	sets := c.packed.CareSets()
	bucketOf := make([]*bucket, len(sets))
	size := make([]int, len(buckets))
	for si, set := range sets {
		part := assign[set.Blocks[0]]
		bi := part + 1
		for _, v := range set.Blocks[1:] {
			if assign[v] != part {
				bi = 0
				res.CutPatterns += set.Weight
				break
			}
		}
		bucketOf[si] = buckets[bi]
		size[bi] += set.Patterns
		for _, v := range set.Blocks {
			buckets[bi].inCore[v] = true
		}
	}
	for bi, b := range buckets {
		b.idx = make([]int32, 0, size[bi])
	}
	for i := 0; i < c.packed.Len(); i++ {
		b := bucketOf[c.packed.CareSetOf(i)]
		b.idx = append(b.idx, int32(i))
	}
	nonEmpty := buckets[:0]
	for _, b := range buckets {
		if len(b.idx) > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	buckets = nonEmpty

	// Compact the buckets on at most CompactWorkers goroutines, one
	// bucket per goroutine. Each bucket traces into its own buffer.
	workers := opts.CompactWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	compact := func(b *bucket) {
		cfg := compaction.Config{Group: b.name, CountOnly: !opts.KeepPatterns}
		if opts.Trace != nil {
			b.trace = obs.NewLocal()
			cfg.Sink = b.trace
		}
		b.comp, b.stats, b.cut = c.packed.Compact(ctx, b.idx, cfg)
	}
	if workers == 1 {
		for _, b := range buckets {
			compact(b)
		}
	} else {
		// Largest bucket first, for balance. Each call writes only its
		// own bucket.
		bySize := append([]*bucket(nil), buckets...)
		sort.SliceStable(bySize, func(i, j int) bool { return len(bySize[i].idx) > len(bySize[j].idx) })
		ParallelFor(workers, len(bySize), func(i int) { compact(bySize[i]) })
	}
	opts.Metrics.Counter("compact_runs").Add(int64(len(buckets)))
	compactionCut := mergeBuckets(res, buckets, cores, opts)

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

// bucket is one group's index list into the corpus on its way through
// compaction.
type bucket struct {
	name   string
	idx    []int32
	inCore []bool // by vertex: some pattern of the bucket cares about the core

	comp  []*sifault.Pattern
	stats compaction.Stats
	cut   bool
	trace *obs.Local
}

// mergeBuckets appends the compacted buckets to res in bucket order
// and reports whether any compaction was cut short. A group's cores
// are the union of its bucket's input care cores, which merging
// preserves. The buckets' trace buffers drain into opts.Trace in the
// same order, so the trace is the serial run's whatever order the
// buckets finished in.
//
//sitlint:detmerge-root
func mergeBuckets(res *GroupingResult, buckets []*bucket, cores []*soc.Core, opts GroupingOptions) bool {
	cut := false
	for _, b := range buckets {
		obs.Drain(opts.Trace, b.trace)
		cut = cut || b.cut
		res.Stats.Original += b.stats.Original
		res.Stats.Compacted += b.stats.Compacted
		res.Stats.Passes += b.stats.Passes
		ids := make([]int, 0, len(cores))
		for v, in := range b.inCore {
			if in {
				ids = append(ids, cores[v].ID)
			}
		}
		sort.Ints(ids)
		res.Groups = append(res.Groups, &sischedule.Group{
			Name:     b.name,
			Cores:    ids,
			Patterns: int64(b.stats.Compacted),
		})
		if opts.KeepPatterns {
			res.GroupPatterns = append(res.GroupPatterns, b.comp)
		}
	}
	return cut
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
// through it. An engine scoring with an IncrementalSIEvaluator
// schedules with that evaluator's planner, so the reported schedule is
// the one the search scored; any other engine builds a planner.
func (e *Engine) Finish(arch *tam.Architecture, st Status, groups []*sischedule.Group, m sischedule.Model, cons *sischedule.Constraints) (*Result, error) {
	var planner *sischedule.Planner
	if inc, ok := innerEvaluator(e.Eval).(*IncrementalSIEvaluator); ok {
		planner = inc.planner
	} else {
		planner = sischedule.NewPlanner(groups, m, cons)
	}
	bd, sched, err := evaluateBreakdown(arch, planner, e.Trace)
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
	if c, ok := e.Eval.(*CachedEvaluator); ok {
		res.Cache = c.Stats()
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
	snap.Counters["evals"] = e.evals
	if c, ok := e.Eval.(*CachedEvaluator); ok {
		st := c.Stats()
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
	// metrics registry add the phase-duration histograms.
	Metrics *obs.Snapshot
}
