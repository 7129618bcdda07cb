// Package sitam is a library for system-on-chip (SOC) test access
// mechanism (TAM) optimization that accounts for interconnect
// signal-integrity (SI) test time, reproducing "SOC Test Architecture
// Optimization for Signal Integrity Faults on Core-External
// Interconnects" (Xu, Zhang, Chakrabarty — DAC 2007).
//
// The package is a facade over the implementation packages: it
// re-exports the SOC model and ITC'02-style benchmark parser, the
// randomized and topology-driven SI pattern generators, the
// two-dimensional test-set compaction pipeline, the SI test scheduler
// (Algorithm 1), the SI-aware TAM optimizer (Algorithm 2) and the
// TR-Architect baseline.
//
// A minimal end-to-end run:
//
//	s, _ := sitam.LoadBenchmark("p93791")
//	patterns, _ := sitam.GeneratePatterns(s, sitam.GenConfig{N: 10000, Seed: 1})
//	groups, _ := sitam.BuildGroups(s, patterns, sitam.GroupingOptions{Parts: 4, Seed: 1})
//	res, _ := sitam.Solve(context.Background(),
//		sitam.Problem{SOC: s, Wmax: 32, Groups: groups.Groups, Model: sitam.DefaultModel()},
//		sitam.Options{}) // Method "" is MethodSI, the paper's Algorithm 2
//	fmt.Println(res.Breakdown.TimeSOC)
//
// Solve is the one optimization entry point: Options.Method selects
// the SI-aware optimizer (MethodSI), the TR-Architect baseline
// (MethodBaseline) or iterated local search (MethodILS), and the
// embedded ParallelConfig sets workers, cache, budget and tracing.
//
// # Cancellation, deadlines, and partial results
//
// Every expensive entry point takes a context (Solve, ExactScheduleSI,
// RunTableCtx) or has a context-aware variant (BuildGroupsCtx). They
// are anytime algorithms: when the context is cancelled or its
// deadline expires mid-search, the best valid result found so far is
// returned with its Partial flag set and a nil error; the context's
// error comes back only when nothing usable was produced. See the
// README section of the same name for details.
//
// # Observability
//
// The optimizers expose a structured search trace and a metrics
// registry through Options' ParallelConfig: set Trace to a collector from
// NewTracer to record typed events (phase spans, candidate
// evaluations, merge decisions, ILS kicks, SI group placements,
// interruptions) and Metrics to a registry from NewMetricsRegistry to
// collect atomic counters and phase-duration histograms. Both default
// to nil and then cost nothing measurable. Engine-assembled Results
// always carry a Metrics snapshot with at least the "evals" counter.
// See the README section of the same name and the trace-schema section
// of DESIGN.md.
//
// # Panics
//
// The facade never panics: internal invariant violations are recovered
// at the API boundary and surfaced as errors wrapping ErrInternal.
package sitam

import (
	"context"
	"io"

	"sitam/internal/core"
	"sitam/internal/experiments"
	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/topology"
	"sitam/internal/trarchitect"
	"sitam/internal/wrapper"
)

// SOC model and benchmark I/O.
type (
	// SOC is a core-based system-on-chip design.
	SOC = soc.SOC
	// Core is one wrapped embedded core.
	Core = soc.Core
	// ConstraintSet is the optional scheduling-constraint stanza of an
	// SOC: a peak test power budget with per-core power overrides,
	// core-level precedence edges, and mutual-exclusion sets.
	ConstraintSet = soc.ConstraintSet
	// Precedence orders the SI tests of two cores.
	Precedence = soc.Precedence
)

// ErrInvalidConstraints reports a structurally invalid constraint set
// (unknown core references, cyclic precedence, negative budgets); test
// with errors.Is.
var ErrInvalidConstraints = soc.ErrInvalid

// ParseSOC reads an ITC'02-style .soc description.
func ParseSOC(r io.Reader) (s *SOC, err error) {
	defer guard(&err)
	return soc.Parse(r)
}

// WriteSOC serializes an SOC in the format ParseSOC reads.
func WriteSOC(w io.Writer, s *SOC) (err error) {
	defer guard(&err)
	return soc.Write(w, s)
}

// LoadBenchmark loads an embedded benchmark SOC ("p34392" or "p93791").
func LoadBenchmark(name string) (s *SOC, err error) {
	defer guard(&err)
	return soc.LoadBenchmark(name)
}

// Benchmarks lists the embedded benchmark names.
func Benchmarks() []string { return soc.Benchmarks() }

// SI test patterns.
type (
	// Pattern is a sparse SI test pattern over the SOC's wrapper
	// output cells plus a shared-bus postfix.
	Pattern = sifault.Pattern
	// GenConfig parameterizes the randomized pattern generator used by
	// the paper's experiments.
	GenConfig = sifault.GenConfig
	// PatternSpace maps global pattern positions to cores.
	PatternSpace = sifault.Space
)

// GeneratePatterns produces random SI test patterns per the paper's
// experimental protocol (one victim, 2-6 aggressors, shared-bus usage).
func GeneratePatterns(s *SOC, cfg GenConfig) (ps []*Pattern, err error) {
	defer guard(&err)
	return sifault.Generate(s, cfg)
}

// NewPatternSpace builds the WOC position space of an SOC.
func NewPatternSpace(s *SOC) *PatternSpace { return sifault.NewSpace(s) }

// Interconnect topologies and deterministic fault-model test sets.
type (
	// Topology is a core-external interconnect netlist.
	Topology = topology.Topology
	// Net is one interconnect of a Topology.
	Net = topology.Net
	// TopologyConfig parameterizes RandomTopology.
	TopologyConfig = topology.RandomConfig
)

// RandomTopology builds a random plausible interconnect netlist.
func RandomTopology(s *SOC, cfg TopologyConfig, seed int64) (t *Topology, err error) {
	defer guard(&err)
	return topology.Random(s, cfg, seed)
}

// MAPatterns synthesizes the maximal-aggressor test set of a topology.
func MAPatterns(t *Topology, k int) (ps []*Pattern, err error) {
	defer guard(&err)
	return topology.MAPatterns(t, k)
}

// ReducedMTPatterns synthesizes the reduced multiple-transition test
// set with locality factor k, optionally capped.
func ReducedMTPatterns(t *Topology, k, maxPatterns int) (ps []*Pattern, err error) {
	defer guard(&err)
	return topology.ReducedMTPatterns(t, k, maxPatterns)
}

// Compaction pipeline and SI test groups.
type (
	// GroupingOptions parameterizes the two-dimensional compaction.
	GroupingOptions = core.GroupingOptions
	// GroupingResult is the outcome of BuildGroups.
	GroupingResult = core.GroupingResult
	// Group is one schedulable SI test group.
	Group = sischedule.Group
)

// BuildGroups runs the paper's two-dimensional SI test-set compaction:
// hypergraph partitioning of the cores plus greedy clique-cover
// compaction within each resulting group.
func BuildGroups(s *SOC, patterns []*Pattern, opts GroupingOptions) (gr *GroupingResult, err error) {
	defer guard(&err)
	return core.BuildGroupsCtx(context.Background(), s, patterns, opts)
}

// BuildGroupsCtx is BuildGroups with graceful degradation under a done
// context: the partitioner skips refinement and the compaction passes
// remaining patterns through unmerged, and the result is marked Partial
// but remains a valid, schedulable grouping covering every input
// pattern. The context's error is returned only when it was done before
// any work started.
func BuildGroupsCtx(ctx context.Context, s *SOC, patterns []*Pattern, opts GroupingOptions) (gr *GroupingResult, err error) {
	defer guard(&err)
	return core.BuildGroupsCtx(ctx, s, patterns, opts)
}

// Scheduling and cost model.
type (
	// Model holds the per-pattern SI shift cost constants.
	Model = sischedule.Model
	// Schedule is a scheduled set of SI test groups.
	Schedule = sischedule.Schedule
	// Architecture is a TestRail TAM architecture.
	Architecture = tam.Architecture
	// Rail is one TestRail.
	Rail = tam.Rail
	// Constraints is a ConstraintSet compiled against a concrete group
	// list, in the form the schedulers consume. Nil = unconstrained.
	Constraints = sischedule.Constraints
)

// DefaultModel returns the SI cost constants the experiments use.
func DefaultModel() Model { return sischedule.DefaultModel() }

// ScheduleSI schedules SI test groups on an architecture (Algorithm 1)
// under a compiled constraint set (nil = unconstrained; see
// CompileConstraints) and returns the schedule with T_soc_si: power
// budget, precedence and exclusion are honored by the same list
// scheduler. Invalid architectures (e.g. cores missing from every
// rail, non-positive rail widths) are rejected with an error.
func ScheduleSI(a *Architecture, groups []*Group, m Model, cons *Constraints) (sch *Schedule, err error) {
	defer guard(&err)
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return sischedule.ScheduleSITestCons(a, groups, m, cons, nil)
}

// ScheduleSIPower is ScheduleSI under a test power ceiling: the summed
// boundary-cell activity of concurrently running groups never exceeds
// budget (<= 0 means unlimited).
func ScheduleSIPower(a *Architecture, groups []*Group, m Model, budget int64) (sch *Schedule, err error) {
	defer guard(&err)
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return sischedule.ScheduleSITestPower(a, groups, m, budget)
}

// CompileConstraints lifts the SOC's Constraints stanza onto the given
// group list. SOCs without a stanza compile to nil (unconstrained);
// structural errors (including core-level precedences that lift to a
// cyclic group order) wrap ErrInvalidConstraints.
func CompileConstraints(s *SOC, groups []*Group) (c *Constraints, err error) {
	defer guard(&err)
	return sischedule.CompileConstraints(s, s.Constraints, groups)
}

// ExactScheduleSI returns the provably minimal SI testing time for at
// most sischedule.MaxExactGroups groups under a compiled constraint set
// (nil = unconstrained), via branch and bound over precedence-feasible
// schedules respecting the power budget and exclusions. Used to audit
// Algorithm 1's schedules. It is an anytime algorithm: on cancellation
// or deadline expiry the best complete schedule found so far is
// returned with partial set — a valid achievable makespan and an upper
// bound on the optimum, never below it. The context's error is
// returned only when no complete schedule was found.
func ExactScheduleSI(ctx context.Context, a *Architecture, groups []*Group, m Model, cons *Constraints) (t int64, partial bool, err error) {
	defer guard(&err)
	if err := a.Validate(); err != nil {
		return 0, false, err
	}
	t, _, partial, err = sischedule.ExactSchedule(ctx, a, groups, m, cons)
	return t, partial, err
}

// Optimization.
type (
	// Result is an optimized architecture with its time breakdown.
	Result = core.Result
	// Breakdown reports T_in, T_si and their sum.
	Breakdown = core.Breakdown
	// Problem is one optimization instance: the SOC, its total TAM
	// width W_max, the SI test groups and their cost model.
	Problem = core.Problem
	// Options selects the optimization method (with its ILS kicks,
	// restarts and seed) and embeds the ParallelConfig of the run.
	Options = core.Options
	// Method selects the optimizer Solve runs.
	Method = core.Method
	// ParallelConfig bundles the concurrency, memoization and
	// observability knobs of a Solve run: Workers bounds concurrent
	// ILS restarts (0 = GOMAXPROCS, 1 = serial) and CacheSize
	// caps the evaluation cache (0 = default, negative = disabled).
	ParallelConfig = core.ParallelConfig
	// CacheStats reports the evaluation cache's hit/miss/eviction
	// counters for a run.
	CacheStats = core.CacheStats
	// CacheFile is a persistent on-disk evaluation-cache journal; pass
	// one via ParallelConfig.Persist to seed a run's cache from disk
	// and append its new entries back. The caller owns the lifecycle
	// (OpenCacheFile / Close).
	CacheFile = core.CacheFile
)

// The optimization methods of Options.Method. The zero Method is
// MethodSI.
const (
	// MethodSI is the paper's SI-aware TAM_Optimization (Algorithm 2).
	MethodSI = core.MethodSI
	// MethodBaseline is the SI-oblivious TR-Architect baseline with the
	// SI groups scheduled on its architecture (the paper's T_[8]).
	MethodBaseline = core.MethodBaseline
	// MethodILS is MethodSI followed by iterated local search (an
	// extension beyond the paper's greedy fixed point).
	MethodILS = core.MethodILS
)

// ErrCacheLocked reports that another process holds the cache file's
// advisory lock; callers typically degrade to memory-only caching.
var ErrCacheLocked = core.ErrCacheLocked

// OpenCacheFile opens (creating if absent) a persistent evaluation-
// cache file for ParallelConfig.Persist. The file is advisory-locked
// for exclusive use and repaired on open: a torn tail or corrupt
// record truncates to the last valid prefix, a version mismatch
// cold-starts, and a file that was never a cache is refused unchanged.
func OpenCacheFile(path string) (cf *CacheFile, err error) {
	defer guard(&err)
	return core.OpenCacheFile(path)
}

// Observability: the structured search trace and the metrics registry
// (see package obs for the event schema and determinism contract).
type (
	// TraceEvent is one structured search-trace record.
	TraceEvent = obs.Event
	// TraceEventType identifies one kind of search-trace event.
	TraceEventType = obs.Type
	// Tracer is the ordered search-trace collector; pass one via
	// ParallelConfig.Trace to record a run.
	Tracer = obs.Tracer
	// MetricsRegistry collects named atomic counters, gauges and
	// histograms; pass one via ParallelConfig.Metrics.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a plain-data copy of a registry's metrics,
	// attached to Result.Metrics.
	MetricsSnapshot = obs.Snapshot
	// StopCause classifies why an anytime run returned a partial
	// result: deadline expiry, cancellation, or budget exhaustion.
	StopCause = core.StopCause
)

// The StopCause values of partial results.
const (
	CauseNone     = core.CauseNone
	CauseDeadline = core.CauseDeadline
	CauseCancel   = core.CauseCancel
	CauseBudget   = core.CauseBudget
)

// ErrBudgetExhausted is the sentinel behind StopCause CauseBudget:
// the engine stopped because ParallelConfig.MaxEvals objective
// evaluations were spent.
var ErrBudgetExhausted = core.ErrBudgetExhausted

// NewTracer returns an empty search-trace collector for
// ParallelConfig.Trace.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry for
// ParallelConfig.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ReadTrace parses a JSONL search trace (as written by
// Tracer.WriteJSONL or tamopt -trace) strictly: unknown fields or
// event types are errors.
func ReadTrace(r io.Reader) (events []TraceEvent, err error) {
	defer guard(&err)
	return obs.ReadJSONL(r)
}

// ValidateTrace checks a trace against the event schema and the
// collector's contiguous-sequence invariant.
func ValidateTrace(events []TraceEvent) (err error) {
	defer guard(&err)
	return obs.ValidateTrace(events)
}

// Solve optimizes a Problem with the method Options selects and
// returns the architecture with its time breakdown and SI schedule. The
// returned architecture is byte-identical at any worker count and
// cache setting; Result.Cache carries the cache counters of the run
// and Result.Metrics its metrics snapshot.
//
// Solve is an anytime algorithm: on cancellation, deadline expiry or
// budget exhaustion mid-search the best architecture found so far is
// evaluated and returned with Result.Partial set and a nil error. The
// best-so-far objective is monotonically non-increasing, so a partial
// result's T_soc is never below what the complete run achieves. The
// context's error comes back only when no valid architecture was
// produced (the context was done before the search started, or it
// fired while the start solution was still infeasible).
func Solve(ctx context.Context, p Problem, o Options) (res *Result, err error) {
	defer guard(&err)
	return core.Solve(ctx, p, o)
}

// OptimizeILSWith is Solve with MethodILS: `restarts` independent ILS
// searches of `kicks` rounds each, seeded seed, seed+1, ..., whose best
// architecture wins (ties broken by the lowest seed, so the outcome is
// byte-identical at any worker count). restarts 0 runs one search. It
// is kept, with its signature, because the benchmark module e2ebench
// calls it.
func OptimizeILSWith(ctx context.Context, s *SOC, wmax int, groups []*Group, m Model, kicks, restarts int, seed int64, cfg ParallelConfig) (res *Result, err error) {
	defer guard(&err)
	return core.Solve(ctx, Problem{SOC: s, Wmax: wmax, Groups: groups, Model: m},
		Options{Method: MethodILS, Kicks: kicks, Restarts: restarts, Seed: seed, ParallelConfig: cfg})
}

// InTestLowerBound returns the Goel-Marinissen lower bound on the
// achievable SOC internal test time at the given total TAM width.
func InTestLowerBound(s *SOC, wmax int) (t int64, err error) {
	defer guard(&err)
	return trarchitect.LowerBound(s, wmax)
}

// InTestTime returns the InTest application time of one core at a TAM
// width, using Best Fit Decreasing wrapper design (the Combine
// procedure). An invalid core (Core.Validate) or a width below 1 is an
// error.
func InTestTime(c *Core, width int) (t int64, err error) {
	defer guard(&err)
	return wrapper.InTestTime(c, width)
}

// Experiments.
type (
	// TableConfig parameterizes a Tables 2/3-style sweep.
	TableConfig = experiments.TableConfig
	// Table is the outcome of RunTableCtx.
	Table = experiments.Table
)

// RunTableCtx regenerates one of the paper's evaluation tables for s,
// running the sweep's generations, groupings and solves concurrently
// under cfg.Parallel.Workers. It degrades gracefully under a done
// context: the cells completed before the interruption come back in a
// Table marked Partial with a nil error (cells in flight are discarded,
// so every reported value is exact). The context's error is returned
// only when it fired before the first cell completed.
func RunTableCtx(ctx context.Context, s *SOC, cfg TableConfig) (t *Table, err error) {
	defer guard(&err)
	return experiments.RunTableCtx(ctx, s, cfg)
}
