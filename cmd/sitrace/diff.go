package main

// Trace differencing: `sitrace -diff a.jsonl b.jsonl` lines up two
// runs' phase-time breakdowns and convergence curves so a regression
// hunt can say *where* a run got slower (which phase) and *whether* it
// got worse (final objective, evals to reach it) without eyeballing
// two summaries side by side. The flight-recorder replay endpoint of
// sitamd produces byte-stable traces, so diffing two daemon jobs of
// the same request isolates nondeterminism and perf drift.

import (
	"fmt"
	"io"

	"sitam/internal/obs"
)

// diffTraces writes a phase and convergence comparison of traces a
// and b. Output is deterministic: phases appear in first-appearance
// order of trace a, then phases only b has.
func diffTraces(w io.Writer, nameA string, a []obs.Event, nameB string, b []obs.Event) {
	fmt.Fprintf(w, "diff: A=%s (%d events)  B=%s (%d events)\n", nameA, len(a), nameB, len(b))

	pa, pb := obs.AggregatePhases(a), obs.AggregatePhases(b)
	indexB := make(map[string]obs.PhaseAgg, len(pb))
	for _, p := range pb {
		indexB[p.Phase] = p
	}
	if len(pa) > 0 || len(pb) > 0 {
		fmt.Fprintf(w, "phases:\n  %-24s %12s %12s %8s %11s %13s\n",
			"phase", "A wall(ms)", "B wall(ms)", "delta", "spans A/B", "n A/B")
	}
	seen := make(map[string]bool, len(pa))
	for _, p := range pa {
		seen[p.Phase] = true
		q, ok := indexB[p.Phase]
		if !ok {
			fmt.Fprintf(w, "  %-24s %12.1f %12s %8s %11s %13s\n",
				p.Phase, float64(p.WallNS)/1e6, "-", "A only",
				fmt.Sprintf("%d/-", p.Spans), fmt.Sprintf("%d/-", p.N))
			continue
		}
		fmt.Fprintf(w, "  %-24s %12.1f %12.1f %8s %11s %13s\n",
			p.Phase, float64(p.WallNS)/1e6, float64(q.WallNS)/1e6,
			deltaPct(p.WallNS, q.WallNS),
			fmt.Sprintf("%d/%d", p.Spans, q.Spans),
			fmt.Sprintf("%d/%d", p.N, q.N))
	}
	for _, q := range pb {
		if seen[q.Phase] {
			continue
		}
		fmt.Fprintf(w, "  %-24s %12s %12.1f %8s %11s %13s\n",
			q.Phase, "-", float64(q.WallNS)/1e6, "B only",
			fmt.Sprintf("-/%d", q.Spans), fmt.Sprintf("-/%d", q.N))
	}

	ca, cb := obs.Curve(a), obs.Curve(b)
	fmt.Fprintf(w, "convergence:\n")
	fmt.Fprintf(w, "  improvements: A=%d B=%d\n", len(ca), len(cb))
	if len(ca) == 0 || len(cb) == 0 {
		// One side carries no objective (e.g. a validation-only trace);
		// the phase table above is the whole comparison.
		return
	}
	fa, fb := ca[len(ca)-1], cb[len(cb)-1]
	fmt.Fprintf(w, "  final best:   A=%d B=%d (%s)\n", fa.Best, fb.Best, deltaPct(fa.Best, fb.Best))
	fmt.Fprintf(w, "  total evals:  A=%d B=%d\n", candidatesEvaluated(a), candidatesEvaluated(b))
	fmt.Fprintf(w, "  evals to B's final best: A=%d B=%d\n", evalsToReach(ca, fb.Best), fb.Evals)
	switch {
	case fa.Best < fb.Best:
		fmt.Fprintf(w, "  verdict: A converged lower\n")
	case fb.Best < fa.Best:
		fmt.Fprintf(w, "  verdict: B converged lower\n")
	default:
		fmt.Fprintf(w, "  verdict: equal final objective\n")
	}
}

// evalsToReach returns the cumulative evaluations at which curve c
// first meets or beats target, or -1 when it never does.
func evalsToReach(c []obs.CurvePoint, target int64) int64 {
	for _, p := range c {
		if p.Best <= target {
			return p.Evals
		}
	}
	return -1
}

// candidatesEvaluated counts the trace's candidate evaluations, those
// after its last improvement included.
func candidatesEvaluated(events []obs.Event) int {
	n := 0
	for i := range events {
		if events[i].Type == obs.CandidateEvaluated {
			n++
		}
	}
	return n
}

// deltaPct renders the B-vs-A relative change of a pair of values.
func deltaPct(a, b int64) string {
	if a == 0 {
		if b == 0 {
			return "0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(b-a)/float64(a))
}
