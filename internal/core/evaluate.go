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
// T_soc = T_soc_in + T_soc_si, scheduling the SI test groups with
// Algorithm 1 from scratch on every evaluation. It is the reference
// implementation the incremental evaluator (IncrementalSIEvaluator) is
// pinned against; production entry points use the incremental one.
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
	sched, err := sischedule.ScheduleSITestCons(a, e.Groups, e.Model, e.Cons, nil)
	if err != nil {
		return 0, err
	}
	return a.InTestTime() + sched.TotalSI, nil
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
	// SerialTime refreshes nothing; approximate per-rail SI usage by a
	// full scheduling pass only for the bookkeeping fields.
	if _, err := sischedule.ScheduleSITest(a, e.Groups, e.Model); err != nil {
		return 0, err
	}
	serial, err := sischedule.SerialTime(a, e.Groups, e.Model)
	if err != nil {
		return 0, err
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
// the SOC carries a Constraints stanza, the schedule honors it; an
// unconstrained SOC takes the exact code path it always did. It is
// kept, with its signature, because the benchmark module e2ebench
// calls it.
func EvaluateBreakdown(a *tam.Architecture, groups []*sischedule.Group, m sischedule.Model) (Breakdown, *sischedule.Schedule, error) {
	cons, err := sischedule.CompileConstraints(a.SOC, a.SOC.Constraints, groups)
	if err != nil {
		return Breakdown{}, nil, err
	}
	return evaluateBreakdown(a, groups, m, cons, nil)
}

// evaluateBreakdown is EvaluateBreakdown under a compiled constraint
// set (nil = unconstrained), with tracing: the final schedule's slots
// are reported as si_group_scheduled events inside an "si schedule"
// phase span whose Best carries T_soc — the endpoint of the run's
// convergence curve.
func evaluateBreakdown(a *tam.Architecture, groups []*sischedule.Group, m sischedule.Model, cons *sischedule.Constraints, sink obs.Sink) (Breakdown, *sischedule.Schedule, error) {
	for _, r := range a.Rails {
		a.RefreshTimeIn(r)
	}
	span := obs.Span(sink, "si schedule")
	sched, err := sischedule.ScheduleSITestCons(a, groups, m, cons, sink)
	if err != nil {
		return Breakdown{}, nil, err
	}
	in := a.InTestTime()
	span.End(in+sched.TotalSI, int64(len(groups)))
	return Breakdown{TimeIn: in, TimeSI: sched.TotalSI, TimeSOC: in + sched.TotalSI}, sched, nil
}
