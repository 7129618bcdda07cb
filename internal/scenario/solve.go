package scenario

import (
	"fmt"

	"sitam/internal/sischedule"
)

// Solve runs one scenario through the production scheduling path and
// cross-validates the outcome three ways:
//
//  1. the constrained list scheduler (Algorithm 1 + constraints)
//     produces the schedule;
//  2. the planner — the optimizer's memoized cost path — must agree
//     with the scheduler's makespan exactly;
//  3. the compiled constraint validator and the independent checker
//     (internal/sicheck, no shared code) must both accept the
//     schedule.
//
// Any disagreement comes back as an error; the harness shrinks the
// scenario that caused it and freezes the reproduction.
func Solve(sc *Scenario) (*sischedule.Schedule, error) {
	arch, err := sc.Architecture()
	if err != nil {
		return nil, fmt.Errorf("architecture: %w", err)
	}
	m := sc.Model()
	cons, err := sischedule.CompileConstraints(sc.SOC, sc.SOC.Constraints, sc.Groups)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sched, err := sischedule.ScheduleSITestCons(arch, sc.Groups, m, cons, nil)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}

	planner := sischedule.NewPlanner(sc.Groups, m, cons)
	si, _, err := planner.Cost(arch)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	if si != sched.TotalSI {
		return nil, fmt.Errorf("planner says T_si=%d, scheduler says %d", si, sched.TotalSI)
	}

	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("schedule invariants: %w", err)
	}
	if err := cons.ValidateSchedule(sc.Groups, sched); err != nil {
		return nil, fmt.Errorf("compiled validator: %w", err)
	}
	if err := sc.Instance().Check(Slots(sched), sched.TotalSI); err != nil {
		return nil, err
	}
	return sched, nil
}
