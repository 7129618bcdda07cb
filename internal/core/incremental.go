package core

import (
	"sitam/internal/sischedule"
	"sitam/internal/tam"
)

// IncrementalSIEvaluator scores architectures by the combined objective
// T_soc = T_soc_in + T_soc_si, like SIEvaluator, but as a delta
// computation: rail InTest times are refreshed only for dirty rails
// (tam dirty tracking), and the SI group times come from its memoizing
// planner's per-rail composition memo, so a group is recosted only when
// a rail it touches changed. Results are byte-identical to SIEvaluator,
// which costs every rail afresh — the differential suite pins this on
// every fixture, width and worker count. Engine.Finish schedules the
// final architecture with the same planner.
//
// The evaluator is not safe for concurrent use: every ILS restart
// scores through a fork of its own over the one planner, whose memo is
// built for concurrent use (forkEvaluator).
type IncrementalSIEvaluator struct {
	planner *sischedule.Planner
	stats   IncrementalStats
}

// NewIncrementalSIEvaluator builds an incremental evaluator over the
// given groups and cost model under a compiled constraint set (nil =
// unconstrained): the planner packs groups under the same
// power/precedence/exclusion rules the final scheduler enforces, so the
// optimizer's objective and the reported schedule agree.
func NewIncrementalSIEvaluator(groups []*sischedule.Group, m sischedule.Model, cons *sischedule.Constraints) *IncrementalSIEvaluator {
	return &IncrementalSIEvaluator{planner: sischedule.NewMemoPlanner(groups, m, cons)}
}

// Evaluate implements Evaluator.
func (e *IncrementalSIEvaluator) Evaluate(a *tam.Architecture) (int64, error) {
	return e.evaluate(a, a.DirtyCount())
}

// evaluate scores a, whose stale rails numbered stale when the
// evaluation began. A CachedEvaluator refreshes those rails to compute
// its key before it forwards a miss, so it counts them first and calls
// evaluate directly.
func (e *IncrementalSIEvaluator) evaluate(a *tam.Architecture, stale int) (int64, error) {
	si, st, err := e.planner.Cost(a)
	if err != nil {
		return 0, err
	}
	e.stats.add(IncrementalStats{
		Evals: 1, DirtyRails: int64(stale),
		RailsRecomputed: int64(st.RailsRecomputed), RailsMemoized: int64(st.RailsMemoized),
		GroupsRecomputed: int64(st.GroupsRecomputed), GroupsMemoized: int64(st.GroupsMemoized),
	})
	return a.InTestTime() + si, nil
}

// IncrementalStats is the cumulative recompute accounting of an
// IncrementalSIEvaluator.
type IncrementalStats struct {
	// Evals is the number of evaluations performed.
	Evals int64

	// DirtyRails is the total number of rails that were stale at
	// evaluation time (and therefore had TimeIn recomputed).
	DirtyRails int64

	// RailsRecomputed / RailsMemoized count per-rail SI cost profiles
	// computed fresh versus served from the composition memo.
	RailsRecomputed int64
	RailsMemoized   int64

	// GroupsRecomputed / GroupsMemoized count SI groups whose time was
	// reassembled through at least one recomputed rail versus entirely
	// from memoized profiles.
	GroupsRecomputed int64
	GroupsMemoized   int64
}

// add folds o into s.
func (s *IncrementalStats) add(o IncrementalStats) {
	s.Evals += o.Evals
	s.DirtyRails += o.DirtyRails
	s.RailsRecomputed += o.RailsRecomputed
	s.RailsMemoized += o.RailsMemoized
	s.GroupsRecomputed += o.GroupsRecomputed
	s.GroupsMemoized += o.GroupsMemoized
}

// Stats returns a snapshot of the evaluator's recompute accounting.
func (e *IncrementalSIEvaluator) Stats() IncrementalStats { return e.stats }
