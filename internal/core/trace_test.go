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
// run must be deterministic for a fixed seed and worker count —
// identical ordered traces when repeated, identical event multisets
// across worker counts once the single-worker-only cache events are
// filtered out — and the replayed convergence curve must end at exactly
// the returned Breakdown.TimeSOC.

const traceW = 16

// traceRun executes one traced optimization and returns the result and
// the collected events.
func traceRun(t *testing.T, s *soc.SOC, groups []*sischedule.Group, m sischedule.Model, workers int) (*Result, []obs.Event) {
	t.Helper()
	tr := obs.NewTracer()
	res, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: workers, Trace: tr})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	events := tr.Events()
	if err := obs.ValidateTrace(events); err != nil {
		t.Fatalf("workers=%d: invalid trace: %v", workers, err)
	}
	return res, events
}

// singleWorkerOnly reports whether ev is emitted only by single-worker
// runs (cache lookups and incremental evaluation accounting, whose
// split is timing-dependent under concurrency).
func singleWorkerOnly(ev *obs.Event) bool {
	return ev.Type == obs.CacheHit || ev.Type == obs.CacheMiss || ev.Type == obs.EvalIncremental
}

// canon strips the nondeterministic fields (sequence number, wall-clock
// duration) and optionally the single-worker-only events, so traces can
// be compared across runs and worker counts.
func canon(events []obs.Event, dropSingle bool) []obs.Event {
	out := make([]obs.Event, 0, len(events))
	for _, ev := range events {
		if dropSingle && singleWorkerOnly(&ev) {
			continue
		}
		ev.Seq = 0
		out = append(out, ev.Canonical())
	}
	return out
}

func multiset(events []obs.Event) map[obs.Event]int {
	m := make(map[obs.Event]int, len(events))
	for _, ev := range events {
		m[ev]++
	}
	return m
}

func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	for name := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			groups := diffGroups(t, s)
			m := sischedule.DefaultModel()

			_, base := traceRun(t, s, groups, m, 1)
			_, again := traceRun(t, s, groups, m, 1)
			b, a := canon(base, false), canon(again, false)
			if len(b) != len(a) {
				t.Fatalf("repeated workers=1 traces differ in length: %d != %d", len(b), len(a))
			}
			for i := range b {
				if b[i] != a[i] {
					t.Fatalf("repeated workers=1 traces diverge at event %d: %+v != %+v", i, b[i], a[i])
				}
			}
			var cacheEvents, incEvents int
			for _, ev := range base {
				switch ev.Type {
				case obs.CacheHit, obs.CacheMiss:
					cacheEvents++
				case obs.EvalIncremental:
					incEvents++
				}
			}
			if cacheEvents == 0 {
				t.Error("workers=1 trace carries no cache events")
			}
			if incEvents == 0 {
				t.Error("workers=1 trace carries no eval_incremental events")
			}

			want := multiset(canon(base, true))
			for _, workers := range []int{2, 8} {
				_, events := traceRun(t, s, groups, m, workers)
				for _, ev := range events {
					if singleWorkerOnly(&ev) {
						t.Fatalf("workers=%d trace carries single-worker-only event %+v", workers, ev)
					}
				}
				got := multiset(canon(events, true))
				if len(got) != len(want) {
					t.Errorf("workers=%d: %d distinct events, workers=1 has %d", workers, len(got), len(want))
				}
				for ev, n := range want {
					if got[ev] != n {
						t.Errorf("workers=%d: event %+v seen %d times, want %d", workers, ev, got[ev], n)
					}
				}
			}
		})
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
		eng, _, err := parallelEngine(s, traceW, &SIEvaluator{Groups: groups, Model: m},
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
	want := multiset(canon(run(1), true))
	got := multiset(canon(run(8), true))
	if len(got) != len(want) {
		t.Errorf("workers=8: %d distinct events, workers=1 has %d", len(got), len(want))
	}
	for ev, n := range want {
		if got[ev] != n {
			t.Errorf("workers=8: event %+v seen %d times, want %d", ev, got[ev], n)
		}
	}
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

// searchCounters picks the counters a single search's work determines:
// evaluations, cache lookups and the incremental evaluator's recompute
// accounting.
func searchCounters(snap *obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range snap.Counters {
		if name == "evals" || name == "cache_hits" || name == "cache_misses" || strings.HasPrefix(name, "eval_") {
			out[name] = v
		}
	}
	return out
}

// TestSolveCountersIndependentOfWorkers: the worker count does not
// change an SI or baseline solve. Every candidate batch is scored
// serially, so a Workers 8 run spends the same evaluations, cache hits
// and misses and incremental recomputes as a Workers 1 run.
func TestSolveCountersIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"d695", "p93791"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			p := Problem{SOC: s, Wmax: 64, Groups: diffGroups(t, s), Model: sischedule.DefaultModel()}
			for _, method := range []Method{MethodSI, MethodBaseline} {
				var want map[string]int64
				for _, workers := range []int{1, 8} {
					res, err := Solve(context.Background(), p, Options{Method: method,
						ParallelConfig: ParallelConfig{Workers: workers, Metrics: obs.NewRegistry()}})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", method, workers, err)
					}
					noPoolMetrics(t, res.Metrics)
					got := searchCounters(res.Metrics)
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
