package core

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"

	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// Differential harness for the observability layer: traces of the same
// run must be deterministic for a fixed seed — identical event for
// event, sequence numbers included, when repeated and at any worker
// count once the wall-clock durations are zeroed — every event must lie
// inside a phase span, and the replayed convergence curve must end at
// exactly the returned Breakdown.TimeSOC.

const traceW = 16

// traceRun executes one traced SI optimization and returns the result
// and the collected events.
func traceRun(t *testing.T, s *soc.SOC, groups []*sischedule.Group, m sischedule.Model, workers int) (*Result, []obs.Event) {
	t.Helper()
	return traceSolve(t, Problem{SOC: s, Wmax: traceW, Groups: groups, Model: m},
		Options{ParallelConfig: ParallelConfig{Workers: workers}})
}

// traceSolve runs Solve with a fresh tracer and returns the result and
// the validated trace.
func traceSolve(t *testing.T, p Problem, o Options) (*Result, []obs.Event) {
	t.Helper()
	tr := obs.NewTracer()
	o.Trace = tr
	res, err := Solve(context.Background(), p, o)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", o.Method, o.Workers, err)
	}
	events := tr.Events()
	if err := obs.ValidateTrace(events); err != nil {
		t.Fatalf("%s workers=%d: invalid trace: %v", o.Method, o.Workers, err)
	}
	return res, events
}

// canon zeroes the wall-clock durations, the one nondeterministic
// field, so traces can be compared across runs and worker counts.
func canon(events []obs.Event) []obs.Event {
	out := make([]obs.Event, len(events))
	for i, ev := range events {
		out[i] = ev.Canonical()
	}
	return out
}

// sameTrace fails the test unless the canonical traces got and want
// are equal event for event.
func sameTrace(t *testing.T, label string, got, want []obs.Event) {
	t.Helper()
	got, want = canon(got), canon(want)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("%s: traces diverge at event %d: %+v, want %+v", label, i, got[i], want[i])
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d events, want %d", label, len(got), len(want))
	}
}

func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	for name := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			p := Problem{SOC: s, Wmax: traceW, Groups: diffGroups(t, s), Model: sischedule.DefaultModel()}
			for _, o := range []Options{
				{Method: MethodSI},
				{Method: MethodILS, Kicks: ilsKicks, Restarts: 3, Seed: ilsSeed},
			} {
				var want []obs.Event
				for _, workers := range []int{1, 1, 2, 8} {
					o.Workers = workers
					_, events := traceSolve(t, p, o)
					if want == nil {
						want = events
						continue
					}
					sameTrace(t, fmt.Sprintf("%s workers=%d", o.Method, workers), events, want)
				}
			}
		})
	}
}

// TestTraceEventsInsideSpans: every event of a solve's trace other
// than a span's own start and end lies inside an open phase span, at
// one worker and at several, for concurrent ILS restarts too.
func TestTraceEventsInsideSpans(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	p := Problem{SOC: s, Wmax: traceW, Groups: diffGroups(t, s), Model: sischedule.DefaultModel()}
	for _, o := range []Options{
		{Method: MethodILS, Kicks: ilsKicks, Restarts: 2, Seed: ilsSeed, ParallelConfig: ParallelConfig{Workers: 1}},
		{Method: MethodILS, Kicks: ilsKicks, Restarts: 2, Seed: ilsSeed, ParallelConfig: ParallelConfig{Workers: 2}},
		{Method: MethodSI, ParallelConfig: ParallelConfig{Workers: 1}},
	} {
		_, events := traceSolve(t, p, o)
		open := 0
		for _, ev := range events {
			switch ev.Type {
			case obs.PhaseStart:
				open++
			case obs.PhaseEnd:
				open--
			default:
				if open <= 0 {
					t.Fatalf("%s workers=%d: event %+v lies outside every span", o.Method, o.Workers, ev)
				}
			}
		}
	}
}

func TestTraceCurveEndsAtTimeSOC(t *testing.T) {
	for name := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			groups := diffGroups(t, s)
			res, events := traceRun(t, s, groups, sischedule.DefaultModel(), 1)
			curve := obs.Curve(events)
			if len(curve) == 0 {
				t.Fatal("trace has no convergence curve")
			}
			if got := curve[len(curve)-1].Best; got != res.Breakdown.TimeSOC {
				t.Errorf("curve ends at %d, Breakdown.TimeSOC = %d", got, res.Breakdown.TimeSOC)
			}
			// The curve is a running minimum: strictly decreasing.
			for i := 1; i < len(curve); i++ {
				if curve[i].Best >= curve[i-1].Best {
					t.Errorf("curve point %d (%d) does not improve on %d", i, curve[i].Best, curve[i-1].Best)
				}
			}
		})
	}
}

func TestTraceILSRestartsDeterministic(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()
	run := func(workers int) []obs.Event {
		t.Helper()
		tr := obs.NewTracer()
		eng, err := parallelEngine(s, traceW, &SIEvaluator{Groups: groups, Model: m},
			ParallelConfig{Workers: workers, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		arch, st, err2 := func() (*Result, Status, error) {
			a, _, st, err := eng.OptimizeILSCtx(context.Background(), ilsKicks, 3, ilsSeed)
			if err != nil {
				return nil, st, err
			}
			res, err := eng.Finish(a, st, groups, m, nil)
			return res, st, err
		}()
		if err2 != nil {
			t.Fatalf("workers=%d: %v", workers, err2)
		}
		_ = arch
		_ = st
		events := tr.Events()
		if err := obs.ValidateTrace(events); err != nil {
			t.Fatalf("workers=%d: invalid trace: %v", workers, err)
		}
		return events
	}
	sameTrace(t, "workers=8", run(8), run(1))
}

func TestBudgetStopsWithCause(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()
	tr := obs.NewTracer()
	res, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: 1, MaxEvals: 150, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("budget-capped run not partial")
	}
	if res.Cause != CauseBudget {
		t.Errorf("Cause = %v, want CauseBudget", res.Cause)
	}
	if !strings.Contains(res.Reason, "evaluation budget exhausted") {
		t.Errorf("Reason = %q", res.Reason)
	}
	var hit bool
	for _, ev := range tr.Events() {
		if ev.Type == obs.DeadlineHit && ev.Cause == "budget" {
			hit = true
		}
	}
	if !hit {
		t.Error("trace carries no deadline_hit event with cause budget")
	}
	if got := res.Metrics.Counter("evals"); got < 150 {
		t.Errorf("evals metric = %d, want >= 150", got)
	}

	// An ample budget must not trip.
	full, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: 1, MaxEvals: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.Cause != CauseNone {
		t.Errorf("ample budget run partial: %v (%s)", full.Cause, full.Reason)
	}
}

func TestCauseOf(t *testing.T) {
	cases := []struct {
		err    error
		want   StopCause
		label  string
		reason string
	}{
		{nil, CauseNone, "", ""},
		{context.DeadlineExceeded, CauseDeadline, "deadline", "deadline exceeded"},
		{context.Canceled, CauseCancel, "interrupted", "cancelled"},
		{ErrBudgetExhausted, CauseBudget, "budget", "evaluation budget exhausted"},
		{fmt.Errorf("eval: %w", ErrBudgetExhausted), CauseBudget, "budget", "evaluation budget exhausted"},
		{fmt.Errorf("eval: %w", context.DeadlineExceeded), CauseDeadline, "deadline", "deadline exceeded"},
	}
	for _, c := range cases {
		got := CauseOf(c.err)
		if got != c.want {
			t.Errorf("CauseOf(%v) = %v, want %v", c.err, got, c.want)
		}
		if got.Label() != c.label {
			t.Errorf("%v.Label() = %q, want %q", got, got.Label(), c.label)
		}
		if got.String() != c.reason {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), c.reason)
		}
	}
}

func TestResultMetricsSnapshot(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()

	reg := obs.NewRegistry()
	res, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics
	if snap == nil {
		t.Fatal("Result.Metrics is nil")
	}
	if snap.Counter("evals") <= 0 {
		t.Error("evals counter missing")
	}
	if snap.Counter("cache_hits")+snap.Counter("cache_misses") <= 0 {
		t.Error("cache counters missing")
	}
	noPoolMetrics(t, snap)
	var phases int
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "phase_ns_") {
			phases++
		}
	}
	if phases < 4 {
		t.Errorf("%d phase duration histograms, want >= 4", phases)
	}

	// Without a registry the snapshot still carries the evaluation and
	// cache counters, so CLIs can report them unconditionally.
	bare, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Metrics == nil || bare.Metrics.Counter("evals") <= 0 {
		t.Errorf("bare run metrics = %+v", bare.Metrics)
	}
	if bare.Metrics.Counter("cache_hits")+bare.Metrics.Counter("cache_misses") <= 0 {
		t.Error("bare run cache counters missing")
	}
}

// noPoolMetrics fails the test if snap names a metric of the candidate
// worker pool, which no longer exists.
func noPoolMetrics(t *testing.T, snap *obs.Snapshot) {
	t.Helper()
	for _, names := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range names {
			if strings.HasPrefix(name, "pool_") {
				t.Errorf("metric %s remains", name)
			}
		}
	}
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "pool_") {
			t.Errorf("metric %s remains", name)
		}
	}
}

// searchCounters picks the counters a search's work determines:
// evaluations, cache lookups and flushes, and the incremental
// evaluator's recompute accounting. Concurrent ILS restarts share the
// planner's memo, so which restart computes a rail profile first, and
// with it every eval_rails_* and eval_groups_* count, depends on
// timing; an ILS run keeps only eval_dirty_rails of them.
func searchCounters(snap *obs.Snapshot, method Method) map[string]int64 {
	out := map[string]int64{}
	for name, v := range snap.Counters {
		if name == "evals" || strings.HasPrefix(name, "cache_") || name == "eval_dirty_rails" ||
			strings.HasPrefix(name, "eval_") && method != MethodILS {
			out[name] = v
		}
	}
	return out
}

// TestSolveCountersIndependentOfWorkers: the worker count does not
// change what a search counts. An SI or baseline solve scores every
// candidate batch serially, so a Workers 8 run spends the same
// evaluations, cache hits, misses and flushes and incremental
// recomputes as a Workers 1 run. ILS restarts each score through a
// cache and evaluator of their own, so their summed counters do not
// depend on how the restarts interleave either, apart from the planner
// memo's share (searchCounters).
func TestSolveCountersIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"d695", "p93791"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			p := Problem{SOC: s, Wmax: 64, Groups: diffGroups(t, s), Model: sischedule.DefaultModel()}
			for _, method := range []Method{MethodSI, MethodBaseline, MethodILS} {
				var want map[string]int64
				for _, workers := range []int{1, 1, 2, 2, 8, 8} {
					res, err := Solve(context.Background(), p, Options{Method: method, Kicks: 4, Restarts: 3, Seed: 7,
						ParallelConfig: ParallelConfig{Workers: workers, Metrics: obs.NewRegistry()}})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", method, workers, err)
					}
					noPoolMetrics(t, res.Metrics)
					got := searchCounters(res.Metrics, method)
					if want == nil {
						want = got
						continue
					}
					if !maps.Equal(got, want) {
						t.Errorf("%s workers=%d counters %v, workers=1 %v", method, workers, got, want)
					}
				}
				if want["evals"] == 0 || want["cache_hits"] == 0 {
					t.Errorf("%s: evaluation or cache counters missing: %v", method, want)
				}
			}
		})
	}
}

func TestSIGroupScheduledEvents(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	_, events := traceRun(t, s, groups, sischedule.DefaultModel(), 1)
	var slots int
	for _, ev := range events {
		if ev.Type == obs.SIGroupScheduled {
			slots++
			if ev.Group == "" || ev.Rails < 1 || ev.End < ev.Begin {
				t.Errorf("malformed slot event %+v", ev)
			}
		}
	}
	if slots == 0 {
		t.Error("trace carries no si_group_scheduled events")
	}
}

// BenchmarkNoopSinkOverhead guards the observability tax on the hot
// path: "off" runs the default configuration (nil sink, nil registry —
// the instrumentation folds to one branch per hook), "trace" and
// "metrics" enable the respective collector. The "off" numbers must
// stay within 2% of the pre-instrumentation baseline; compare "off"
// against "trace"/"metrics" to price the collectors themselves.
func BenchmarkNoopSinkOverhead(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: diffNr, Seed: diffSeed})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: diffParts, Seed: diffSeed})
	if err != nil {
		b.Fatal(err)
	}
	m := sischedule.DefaultModel()
	run := func(b *testing.B, cfg func() ParallelConfig) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TAMOptimizationWith(context.Background(), s, 32, gr.Groups, m, cfg()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, func() ParallelConfig { return ParallelConfig{Workers: 1} })
	})
	b.Run("trace", func(b *testing.B) {
		run(b, func() ParallelConfig { return ParallelConfig{Workers: 1, Trace: obs.NewTracer()} })
	})
	b.Run("metrics", func(b *testing.B) {
		run(b, func() ParallelConfig { return ParallelConfig{Workers: 1, Metrics: obs.NewRegistry()} })
	})
}
