// Package sischedule implements the paper's SI test scheduling for a
// given TestRail architecture: the CalculateSITestTime procedure
// (per-group testing time, Example 1 semantics) and Algorithm 1,
// ScheduleSITest (Fig. 5), which packs SI test groups onto the rails so
// that groups whose rail sets are disjoint run concurrently.
//
// The Planner (planner.go) is the one implementation of both: it costs
// each rail's contribution to each group and packs the groups with
// Algorithm 1. CalculateSITestTime, ScheduleSITest, ScheduleSITestCons,
// SerialTime and ExactSchedule each run a one-shot planner; the
// optimizer's incremental evaluator keeps one memoizing planner for a
// whole run. A from-scratch implementation of both procedures lives in
// the package's tests as the oracle the planner is held to.
//
// The per-rail, per-pattern cost model: shifting one SI pattern of group
// s through rail r costs
//
//	Σ_{c ∈ C(r)∩C(s)} ceil(WOC_c / width(r))   (boundary shift)
//	+ Bypass · |C(r) \ C(s)|                    (don't-care core bypass)
//	+ Overhead                                  (launch + capture)
//
// cycles; the rail's time for the group is that times the group's
// pattern count, and the group's testing time is the maximum over its
// involved rails — the bottleneck rail (Example 1).
package sischedule

import (
	"fmt"
	"sort"

	"sitam/internal/obs"
	"sitam/internal/tam"
)

// Group is one SI test group: a set of involved cores and a compacted
// pattern count (the data structure of Fig. 4, left).
type Group struct {
	// Name labels the group in schedules and reports.
	Name string

	// Cores holds the IDs of the involved cores (the paper's C(s)),
	// sorted ascending.
	Cores []int

	// Patterns is the number of (compacted) SI test patterns.
	Patterns int64
}

// Clone returns a deep copy of the group.
func (g *Group) Clone() *Group {
	c := *g
	c.Cores = append([]int(nil), g.Cores...)
	return &c
}

// Model holds the per-pattern cost constants of the shift model. The
// zero value means zero bypass and zero overhead cycles; use
// DefaultModel for the constants the experiments assume.
type Model struct {
	// Bypass is the cycle cost per pattern of bypassing one don't-care
	// core on a rail.
	Bypass int64

	// Overhead is the per-pattern launch/capture cycle cost added to
	// every involved rail.
	Overhead int64
}

// DefaultModel returns the cost constants used throughout the
// experiments: 1 bypass cycle per skipped core, and 3 launch/capture
// cycles per pattern (two launch cycles for the vector pair plus one
// capture).
func DefaultModel() Model { return Model{Bypass: 1, Overhead: 3} }

// GroupTime is the outcome of CalculateSITestTime for one group.
type GroupTime struct {
	// Time is the group's SI testing time time_si(s): pattern count
	// times the bottleneck rail's per-pattern cycles.
	Time int64

	// Rails holds the indices (into the architecture's rail slice) of
	// the rails involved in the group — R_tam(s).
	Rails []int

	// Bottleneck is the index of the bottleneck rail r_btn(s), the
	// involved rail with the largest time.
	Bottleneck int

	// PerRail[i] is the rail Rails[i]'s own busy time for this group
	// (pattern count times that rail's per-pattern cycles). The
	// bottleneck entry equals Time.
	PerRail []int64
}

// CalculateSITestTime computes, for every group, its testing time under
// the given architecture (the paper's CalculateSITestTime procedure).
// It costs the rails with a one-shot Planner and leaves the rails'
// TimeSI fields alone.
func CalculateSITestTime(a *tam.Architecture, groups []*Group, m Model) ([]GroupTime, error) {
	return NewPlanner(groups, m, nil).groupTimes(a)
}

// Slot is one scheduled group.
type Slot struct {
	Group *Group
	GroupTime
	Begin int64
	End   int64

	// Power is the group's test power under the schedule's constraint
	// set (0 when the schedule was built unconstrained).
	Power int64
}

// Schedule is the result of ScheduleSITest.
type Schedule struct {
	Slots []Slot

	// TotalSI is the SOC SI testing time T_soc_si: the time at which
	// the last group finishes.
	TotalSI int64

	// RailSI[i] is the accumulated busy SI time of rail i across all
	// groups — the time_si(r) bookkeeping of Fig. 4.
	RailSI []int64
}

// ScheduleSITest implements Algorithm 1 (Fig. 5): it schedules the SI
// test groups on the architecture's rails, running groups concurrently
// whenever their rail sets are disjoint, and returns the schedule and
// T_soc_si. Groups are considered in input order (the paper's "find s*"
// picks the first schedulable unscheduled test).
//
// As a side effect it refreshes each rail's TimeSI field with the rail's
// accumulated busy time.
func ScheduleSITest(a *tam.Architecture, groups []*Group, m Model) (*Schedule, error) {
	return ScheduleSITestCons(a, groups, m, nil, nil)
}

// ScheduleSITestCons is ScheduleSITest under a compiled constraint set
// (nil = unconstrained), reporting the slots to sink as
// Planner.Schedule does. A group is only picked when its rails are
// free AND its power fits the remaining budget AND all its predecessor
// groups have finished AND no mutually exclusive group is running;
// otherwise time advances exactly as in Algorithm 1.
func ScheduleSITestCons(a *tam.Architecture, groups []*Group, m Model, cons *Constraints, sink obs.Sink) (*Schedule, error) {
	return NewPlanner(groups, m, cons).Schedule(a, sink)
}

// SerialTime returns the SI testing time when the groups are applied
// strictly one after another (no Algorithm 1 concurrency): the sum of
// the group times. Used as the scheduling ablation baseline.
func SerialTime(a *tam.Architecture, groups []*Group, m Model) (int64, error) {
	times, err := CalculateSITestTime(a, groups, m)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, gt := range times {
		total += gt.Time
	}
	return total, nil
}

// Validate checks schedule invariants: no two temporally overlapping
// slots share a rail, every slot's duration matches its group time.
func (s *Schedule) Validate() error {
	for i, a := range s.Slots {
		if a.End-a.Begin != a.Time {
			return fmt.Errorf("sischedule: slot %d duration %d != group time %d", i, a.End-a.Begin, a.Time)
		}
		for j := i + 1; j < len(s.Slots); j++ {
			b := s.Slots[j]
			if a.Begin < b.End && b.Begin < a.End && a.Time > 0 && b.Time > 0 {
				for _, ra := range a.Rails {
					for _, rb := range b.Rails {
						if ra == rb {
							return fmt.Errorf("sischedule: slots %d and %d overlap on rail %d", i, j, ra)
						}
					}
				}
			}
		}
	}
	return nil
}

// String renders the schedule as a time-sorted listing.
func (s *Schedule) String() string {
	slots := append([]Slot(nil), s.Slots...)
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].Begin != slots[j].Begin {
			return slots[i].Begin < slots[j].Begin
		}
		return slots[i].Group.Name < slots[j].Group.Name
	})
	out := fmt.Sprintf("SI schedule: T_si=%d\n", s.TotalSI)
	for _, sl := range slots {
		out += fmt.Sprintf("  [%8d, %8d) %-8s rails=%v bottleneck=TAM%d patterns=%d\n",
			sl.Begin, sl.End, sl.Group.Name, sl.Rails, sl.Bottleneck+1, sl.Group.Patterns)
	}
	return out
}
