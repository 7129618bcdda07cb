package core

import (
	"sync/atomic"

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
// The evaluator is safe for concurrent use (the planner memo is
// shared).
type IncrementalSIEvaluator struct {
	planner *sischedule.Planner
	stripes [incStripes]incCounters
}

// incStripes is the number of copies of the recompute counters. An
// evaluation adds to the copy its architecture's hash picks, so
// concurrent evaluations rarely write the same cache line; Stats sums
// the copies.
const incStripes = 16

// incCounters is one stripe of an IncrementalSIEvaluator's counters.
type incCounters struct {
	evals            atomic.Int64
	dirtyRails       atomic.Int64
	railsRecomputed  atomic.Int64
	railsMemoized    atomic.Int64
	groupsRecomputed atomic.Int64
	groupsMemoized   atomic.Int64
	_                [64]byte // keeps neighbouring stripes off one cache line
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
	c := &e.stripes[(spread(a.Hash())>>32)%incStripes]
	c.evals.Add(1)
	c.dirtyRails.Add(int64(stale))
	c.railsRecomputed.Add(int64(st.RailsRecomputed))
	c.railsMemoized.Add(int64(st.RailsMemoized))
	c.groupsRecomputed.Add(int64(st.GroupsRecomputed))
	c.groupsMemoized.Add(int64(st.GroupsMemoized))
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

// Stats returns a snapshot of the evaluator's recompute accounting.
func (e *IncrementalSIEvaluator) Stats() IncrementalStats {
	var st IncrementalStats
	for i := range e.stripes {
		c := &e.stripes[i]
		st.Evals += c.evals.Load()
		st.DirtyRails += c.dirtyRails.Load()
		st.RailsRecomputed += c.railsRecomputed.Load()
		st.RailsMemoized += c.railsMemoized.Load()
		st.GroupsRecomputed += c.groupsRecomputed.Load()
		st.GroupsMemoized += c.groupsMemoized.Load()
	}
	return st
}
