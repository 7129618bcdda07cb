package core

import (
	"sync/atomic"

	"sitam/internal/obs"
	"sitam/internal/sischedule"
	"sitam/internal/tam"
)

// IncrementalSIEvaluator scores architectures by the combined objective
// T_soc = T_soc_in + T_soc_si, like SIEvaluator, but as a delta
// computation: rail InTest times are refreshed only for dirty rails
// (tam dirty tracking), and the SI group times come from the planner's
// per-rail composition memo, so a group is recosted only when a rail it
// touches changed. Results are byte-identical to SIEvaluator — the
// differential suite pins this on every fixture, width and worker
// count.
//
// The evaluator is safe for concurrent use (the planner memo is
// shared). The optional sink receives one eval_incremental event per
// evaluation; the engine wires it only for single-worker runs, where
// the event order is deterministic.
type IncrementalSIEvaluator struct {
	planner *sischedule.Planner
	sink    obs.Sink

	evals            atomic.Int64
	dirtyRails       atomic.Int64
	railsRecomputed  atomic.Int64
	railsMemoized    atomic.Int64
	groupsRecomputed atomic.Int64
	groupsMemoized   atomic.Int64
}

// NewIncrementalSIEvaluator builds an incremental evaluator over the
// given groups and cost model under a compiled constraint set (nil =
// unconstrained): the planner packs groups under the same
// power/precedence/exclusion rules the final scheduler enforces, so the
// optimizer's objective and the reported schedule agree.
func NewIncrementalSIEvaluator(groups []*sischedule.Group, m sischedule.Model, cons *sischedule.Constraints) *IncrementalSIEvaluator {
	return &IncrementalSIEvaluator{planner: sischedule.NewPlanner(groups, m, cons)}
}

// Evaluate implements Evaluator.
func (e *IncrementalSIEvaluator) Evaluate(a *tam.Architecture) (int64, error) {
	dirty := a.DirtyCount()
	si, st, err := e.planner.Cost(a)
	if err != nil {
		return 0, err
	}
	e.evals.Add(1)
	e.dirtyRails.Add(int64(dirty))
	e.railsRecomputed.Add(int64(st.RailsRecomputed))
	e.railsMemoized.Add(int64(st.RailsMemoized))
	e.groupsRecomputed.Add(int64(st.GroupsRecomputed))
	e.groupsMemoized.Add(int64(st.GroupsMemoized))
	if e.sink != nil {
		e.sink.Emit(obs.Event{
			Type:       obs.EvalIncremental,
			N:          int64(dirty),
			Recomputed: st.GroupsRecomputed,
			Memoized:   st.GroupsMemoized,
		})
	}
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
	return IncrementalStats{
		Evals:            e.evals.Load(),
		DirtyRails:       e.dirtyRails.Load(),
		RailsRecomputed:  e.railsRecomputed.Load(),
		RailsMemoized:    e.railsMemoized.Load(),
		GroupsRecomputed: e.groupsRecomputed.Load(),
		GroupsMemoized:   e.groupsMemoized.Load(),
	}
}
