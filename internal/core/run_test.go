package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// scriptCtx generalizes countdownCtx: Err reports
// context.DeadlineExceeded on exactly the polls fire selects, counted
// from 0, and nil on the others. It can cut one stage of Run and let
// the next stage run on a live context, which no real deadline does.
type scriptCtx struct {
	context.Context
	n    int
	fire func(poll int) bool
}

func (c *scriptCtx) Err() error {
	n := c.n
	c.n++
	if c.fire(n) {
		return context.DeadlineExceeded
	}
	return nil
}

// firing returns a scriptCtx that fires on polls [from, to).
func firing(from, to int) *scriptCtx {
	return &scriptCtx{Context: context.Background(), fire: func(n int) bool { return n >= from && n < to }}
}

// pollsOf counts the context polls of f.
func pollsOf(f func(ctx context.Context)) int {
	ctx := firing(0, 0)
	f(ctx)
	return ctx.n
}

// runCell is the cell the Run tests solve: d695 at N_r 1,500, g 2,
// W_max 12.
func runCell() Cell {
	return Cell{SOC: soc.MustLoadBenchmark("d695"), Wmax: 12, Nr: 1500, Parts: 2, Seed: 1}
}

// chained runs c's stages by hand, as the front ends chained them
// before Run: generation under a "pattern generation" span, grouping
// with the solve's workers, trace and metrics, then Solve.
func chained(t *testing.T, c Cell, o Options) (*Result, *GroupingResult) {
	t.Helper()
	ctx := context.Background()
	span := obs.Span(o.Trace, phaseGenerate)
	patterns, _, err := sifault.GenerateCtx(ctx, c.SOC, sifault.GenConfig{N: c.Nr, Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	span.End(0, int64(len(patterns)))
	gr, err := BuildGroupsCtx(ctx, c.SOC, patterns, GroupingOptions{
		Parts: c.Parts, Seed: c.Seed, Trace: o.Trace, CompactWorkers: o.Workers, Metrics: o.Metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(ctx, Problem{SOC: c.SOC, Wmax: c.Wmax, Groups: gr.Groups, Model: sischedule.DefaultModel()}, o)
	if err != nil {
		t.Fatal(err)
	}
	return res, gr
}

// TestRunMatchesChainedStages pins Run to the hand-chained stages for
// every method at one and two workers: the same architecture,
// breakdown, schedule, evaluation count, grouping and compact_runs
// count, and at one worker the same canonical trace.
func TestRunMatchesChainedStages(t *testing.T) {
	c := runCell()
	for _, m := range []Method{MethodSI, MethodBaseline, MethodILS} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/workers=%d", m, workers)
			opts := func() Options {
				return Options{Method: m, Kicks: 3, Restarts: 2, Seed: 1, ParallelConfig: ParallelConfig{
					Workers: workers, Trace: obs.NewTracer(), Metrics: obs.NewRegistry(),
				}}
			}
			wo := opts()
			want, wantGR := chained(t, c, wo)
			o := opts()
			res, gr, err := Run(context.Background(), c, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Partial || gr.Partial {
				t.Fatalf("%s: uncut run is partial: %q / %q", name, res.Reason, gr.Reason)
			}
			if res.Architecture.String() != want.Architecture.String() {
				t.Errorf("%s: architecture\n%s\nchained\n%s", name, res.Architecture, want.Architecture)
			}
			if res.Breakdown != want.Breakdown {
				t.Errorf("%s: breakdown %+v, chained %+v", name, res.Breakdown, want.Breakdown)
			}
			if res.Schedule.String() != want.Schedule.String() {
				t.Errorf("%s: schedule differs from the chained one", name)
			}
			for _, counter := range []string{"evals", "compact_runs"} {
				if got, w := res.Metrics.Counter(counter), want.Metrics.Counter(counter); got != w {
					t.Errorf("%s: %s = %d, chained %d", name, counter, got, w)
				}
			}
			if !sameGrouping(gr, wantGR) {
				t.Errorf("%s: grouping differs from the chained one", name)
			}
			if workers == 1 {
				got, w := canon(o.Trace.Events(), false), canon(wo.Trace.Events(), false)
				if !slices.Equal(got, w) {
					t.Errorf("%s: trace differs from the chained one (%d vs %d events)", name, len(got), len(w))
				}
			}
		}
	}
}

// TestRunCutStage cuts each stage of Run in turn and checks that the
// result carries that stage's partial status and that the cut stage's
// output is what the stage alone returns under the same cut. A cut
// generation ends the run with the context's error, whatever the later
// stages would have done, and its deadline_hit lies inside the
// generation span.
func TestRunCutStage(t *testing.T) {
	c := runCell()
	// The stages trace as Run's do: a traced cut polls once more for
	// its deadline_hit cause.
	o := Options{ParallelConfig: ParallelConfig{Workers: 1, Trace: obs.NewTracer()}}
	patterns, err := sifault.Generate(c.SOC, sifault.GenConfig{N: c.Nr, Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	gopts := GroupingOptions{Parts: c.Parts, Seed: c.Seed, CompactWorkers: 1, Trace: o.Trace}
	group := func(ctx context.Context, ps []*sifault.Pattern) *GroupingResult {
		gr, err := BuildGroupsCtx(ctx, c.SOC, ps, gopts)
		if err != nil {
			t.Fatal(err)
		}
		return gr
	}
	solve := func(ctx context.Context, gr *GroupingResult) *Result {
		res, err := Solve(ctx, Problem{SOC: c.SOC, Wmax: c.Wmax, Groups: gr.Groups, Model: sischedule.DefaultModel()}, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := group(context.Background(), patterns)
	genPolls := pollsOf(func(ctx context.Context) {
		sifault.GenerateCtx(ctx, c.SOC, sifault.GenConfig{N: c.Nr, Seed: c.Seed})
	})
	groupPolls := pollsOf(func(ctx context.Context) { group(ctx, patterns) })
	solvePolls := pollsOf(func(ctx context.Context) { solve(ctx, full) })

	// Generation polls before its first pattern and then every 512:
	// failing its second poll cuts it at 512, and Run's poll for the
	// cause must fail too. The cut generation takes three polls.
	const kept, genCutPolls = 512, 3
	genCut := func(n int) bool { return n == 1 || n == 2 }
	// After the cut, the stages run on the 512-pattern prefix.
	prefix := group(context.Background(), patterns[:kept])
	prefixGroupPolls := pollsOf(func(ctx context.Context) { group(ctx, patterns[:kept]) })
	prefixSolvePolls := pollsOf(func(ctx context.Context) { solve(ctx, prefix) })

	// A grouping cut midway stays cut for the rest of the grouping;
	// cutGroup returns what the grouping alone returns and the polls
	// it took.
	cutGroup := func(ps []*sifault.Pattern, polls int) (*GroupingResult, int) {
		ctx := firing(polls/2, math.MaxInt)
		gr := group(ctx, ps)
		if !gr.Partial || gr.Cause != CauseDeadline {
			t.Fatalf("grouping cut at poll %d of %d: partial %v, cause %v", polls/2, polls, gr.Partial, gr.Cause)
		}
		return gr, ctx.n
	}
	wantGR, cutGroupPolls := cutGroup(patterns, groupPolls)
	_, cutPrefixGroupPolls := cutGroup(patterns[:kept], prefixGroupPolls)
	ks := solvePolls / 2
	wantSolve := solve(firing(ks, math.MaxInt), full)
	kp := prefixSolvePolls / 2

	prefixGroupCut := func(n int) bool {
		return n >= genCutPolls+prefixGroupPolls/2 && n < genCutPolls+cutPrefixGroupPolls
	}
	cases := []struct {
		name       string
		fire       func(n int) bool
		reason     string          // "" when the generation was cut: Run returns the context's error
		wantGR     *GroupingResult // the grouping's own result, when it was cut
		wantResult *Result         // the search's own result, when it was cut
	}{
		{"generation", genCut, "", nil, nil},
		{"grouping", func(n int) bool { return n >= genPolls+groupPolls/2 && n < genPolls+cutGroupPolls }, wantGR.Reason, wantGR, nil},
		{"search", func(n int) bool { return n >= genPolls+groupPolls+ks }, wantSolve.Reason, nil, wantSolve},
		{"generation and grouping", func(n int) bool { return genCut(n) || prefixGroupCut(n) }, "", nil, nil},
		{"generation and search", func(n int) bool { return genCut(n) || n >= genCutPolls+prefixGroupPolls+kp }, "", nil, nil},
	}
	for _, tc := range cases {
		tr := obs.NewTracer()
		oc := o
		oc.Trace = tr
		res, gr, err := Run(&scriptCtx{Context: context.Background(), fire: tc.fire}, c, oc)
		events := tr.Events()
		if err := obs.ValidateSpans(events); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.reason == "" {
			if !errors.Is(err, context.DeadlineExceeded) || res != nil || gr != nil {
				t.Errorf("%s: Run returned result %v, grouping %v, error %v; want only the context's error", tc.name, res != nil, gr != nil, err)
			}
			checkGenerationCut(t, tc.name, events)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Partial || res.Reason != tc.reason || res.Cause != CauseDeadline {
			t.Errorf("%s: result partial %v, reason %q, cause %v; want reason %q, deadline",
				tc.name, res.Partial, res.Reason, res.Cause, tc.reason)
		}
		if gr.Partial != (tc.wantGR != nil) {
			t.Errorf("%s: grouping partial = %v", tc.name, gr.Partial)
		}
		if tc.wantGR != nil && !sameGrouping(gr, tc.wantGR) {
			t.Errorf("%s: grouping differs from the grouping cut alone", tc.name)
		}
		if w := tc.wantResult; w != nil && (res.Breakdown != w.Breakdown || res.Architecture.String() != w.Architecture.String()) {
			t.Errorf("%s: search result %+v, the search cut alone %+v", tc.name, res.Breakdown, w.Breakdown)
		}
	}
}

// checkGenerationCut checks that the trace's deadline_hit for the
// generation lies inside the "pattern generation" span.
func checkGenerationCut(t *testing.T, name string, events []obs.Event) {
	t.Helper()
	start, hit, end := -1, -1, -1
	for i, ev := range events {
		if ev.Phase != phaseGenerate {
			continue
		}
		switch ev.Type {
		case obs.PhaseStart:
			start = i
		case obs.DeadlineHit:
			hit = i
			if ev.Cause != "deadline" {
				t.Errorf("%s: generation deadline_hit cause %q", name, ev.Cause)
			}
		case obs.PhaseEnd:
			end = i
		}
	}
	if start < 0 || !(start < hit && hit < end) {
		t.Errorf("%s: generation span at %d..%d, deadline_hit at %d", name, start, end, hit)
	}
}
