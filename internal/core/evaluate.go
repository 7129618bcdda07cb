// Package core implements the paper's primary contribution: the
// TAM_Optimization algorithm (Fig. 6) that designs a TestRail
// architecture minimizing the combined SOC testing time
// T_soc = T_soc_in + T_soc_si, together with the two-dimensional SI
// test-set compaction pipeline that produces the SI test groups the
// optimizer schedules.
//
// The optimization engine is parameterized by an objective Evaluator.
// With the InTest-only evaluator it reduces to the TR-Architect
// algorithm of Goel and Marinissen (the paper's baseline, re-exported by
// package trarchitect); with the SI evaluator it is the paper's
// Algorithm 2, whose merging and wire-distribution decisions see the
// full objective and therefore account for the multiple simultaneous
// bottleneck TAMs that SI test groups induce.
package core

import (
	"sitam/internal/obs"
	"sitam/internal/sischedule"
	"sitam/internal/tam"
)

// Evaluator computes the optimization objective of an architecture and
// refreshes the rails' TimeIn/TimeSI bookkeeping fields as a side
// effect (so callers may rank rails by TimeUsed afterwards).
type Evaluator interface {
	Evaluate(a *tam.Architecture) (int64, error)
}

// InTestEvaluator scores architectures by internal test time only —
// the TR-Architect objective.
type InTestEvaluator struct{}

// Evaluate implements Evaluator.
func (InTestEvaluator) Evaluate(a *tam.Architecture) (int64, error) {
	a.Refresh() // recomputes TimeIn for dirty rails only
	for _, r := range a.Rails {
		r.SetTimeSI(0)
	}
	return a.InTestTime(), nil
}

// SIEvaluator scores architectures by the combined objective
// T_soc = T_soc_in + T_soc_si, recomputing every rail's InTest time and
// costing the SI test groups with a fresh memo-free planner on every
// evaluation. The differential tests run it against the incremental
// evaluator (IncrementalSIEvaluator), which production entry points
// use.
type SIEvaluator struct {
	Groups []*sischedule.Group
	Model  sischedule.Model

	// Cons optionally constrains the schedule (power budget, precedence,
	// exclusion). Nil scores with plain Algorithm 1, byte-identically to
	// the pre-constraint evaluator.
	Cons *sischedule.Constraints
}

// Evaluate implements Evaluator.
func (e *SIEvaluator) Evaluate(a *tam.Architecture) (int64, error) {
	for _, r := range a.Rails {
		a.RefreshTimeIn(r)
	}
	si, _, err := sischedule.NewPlanner(e.Groups, e.Model, e.Cons).Cost(a)
	if err != nil {
		return 0, err
	}
	return a.InTestTime() + si, nil
}

// TestBusEvaluator scores architectures the way a multiplexed Test Bus
// architecture (Varma & Bhatia) would behave: internal tests run as on
// a TestRail, but the SI test groups must be applied strictly serially
// because a Test Bus multiplexes access to one core's wrapper at a
// time and cannot drive the boundary cells of several partitions
// concurrently. The paper picks the TestRail architecture precisely
// because it supports parallel external test; optimizing under this
// evaluator quantifies what that choice buys (see the ablation bench).
type TestBusEvaluator struct {
	Groups []*sischedule.Group
	Model  sischedule.Model
}

// Evaluate implements Evaluator.
func (e *TestBusEvaluator) Evaluate(a *tam.Architecture) (int64, error) {
	for _, r := range a.Rails {
		a.RefreshTimeIn(r)
	}
	// The Algorithm 1 schedule fills the rails' TimeSI bookkeeping; the
	// objective applies its groups back to back.
	sched, err := sischedule.ScheduleSITest(a, e.Groups, e.Model)
	if err != nil {
		return 0, err
	}
	var serial int64
	for _, sl := range sched.Slots {
		serial += sl.Time
	}
	return a.InTestTime() + serial, nil
}

// Breakdown reports the two components of the combined objective for a
// final architecture.
type Breakdown struct {
	TimeIn  int64
	TimeSI  int64
	TimeSOC int64
}

// EvaluateBreakdown computes the breakdown of an architecture under the
// given groups and model, also refreshing the rails' bookkeeping. When
// the SOC carries a Constraints stanza, the schedule honors it. The
// experiments harness scores every TR-Architect baseline with it (the
// tables' T_[8]), and the benchmark module e2ebench calls it.
func EvaluateBreakdown(a *tam.Architecture, groups []*sischedule.Group, m sischedule.Model) (Breakdown, *sischedule.Schedule, error) {
	cons, err := sischedule.CompileConstraints(a.SOC, a.SOC.Constraints, groups)
	if err != nil {
		return Breakdown{}, nil, err
	}
	return evaluateBreakdown(a, sischedule.NewPlanner(groups, m, cons), nil)
}

// evaluateBreakdown is EvaluateBreakdown on planner p, with tracing:
// the final schedule's slots are reported as si_group_scheduled events
// inside an "si schedule" phase span whose Best carries T_soc — the
// endpoint of the run's convergence curve.
func evaluateBreakdown(a *tam.Architecture, p *sischedule.Planner, sink obs.Sink) (Breakdown, *sischedule.Schedule, error) {
	for _, r := range a.Rails {
		a.RefreshTimeIn(r)
	}
	span := obs.Span(sink, "si schedule")
	sched, err := p.Schedule(a, sink)
	if err != nil {
		return Breakdown{}, nil, err
	}
	in := a.InTestTime()
	span.End(in+sched.TotalSI, int64(len(sched.Slots)))
	return Breakdown{TimeIn: in, TimeSI: sched.TotalSI, TimeSOC: in + sched.TotalSI}, sched, nil
}
