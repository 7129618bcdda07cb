package scenario

import (
	"fmt"

	"sitam/internal/sischedule"
)

// Solve runs one scenario through the production scheduling path (the
// planner's constrained Algorithm 1) and validates the schedule three
// ways: its own invariants, the compiled constraint validator, and the
// independent checker (internal/sicheck, no shared code). Any
// rejection comes back as an error; the harness shrinks the scenario
// that caused it and freezes the reproduction. The planner's agreement
// with the from-scratch scheduler is sischedule's own differential
// test, run over this package's generator.
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
