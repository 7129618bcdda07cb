package sischedule

import (
	"fmt"

	"sitam/internal/tam"
)

// Power-constrained SI test scheduling. During an SI test every
// involved core's boundary cells toggle at speed, so running many
// groups concurrently can exceed the SOC's test power envelope — the
// classic constraint of SOC test scheduling (Chou et al.; Iyengar &
// Chakrabarty). The paper schedules SI tests with rail exclusivity
// only; this extension additionally enforces a power ceiling, and
// degrades gracefully to Algorithm 1 when the budget is unlimited.

// GroupPower estimates the test power of an SI group as the total
// number of wrapper output cells it toggles: Σ WOC over its cores.
func GroupPower(a *tam.Architecture, g *Group) int64 {
	var p int64
	for _, id := range g.Cores {
		c := a.SOC.CoreByID(id)
		if c != nil {
			p += int64(c.WOC())
		}
	}
	return p
}

// ScheduleSITestPower is ScheduleSITest with a power ceiling: at any
// instant the sum of GroupPower over the running groups must not
// exceed budget. A budget <= 0 means unlimited. An individual group
// whose power alone exceeds a positive budget makes the schedule
// infeasible and is reported as an error.
//
// It is a compatibility wrapper over ScheduleSITestCons with a
// budget-only constraint set; the full constraint vocabulary (power
// plus precedence and exclusion, from the .soc Constraints stanza)
// goes through CompileConstraints.
func ScheduleSITestPower(a *tam.Architecture, groups []*Group, m Model, budget int64) (*Schedule, error) {
	return ScheduleSITestCons(a, groups, m, powerOnly(a, groups, budget), nil)
}

// ValidatePower checks that no instant of the schedule exceeds the
// power budget (budget <= 0 always passes).
func ValidatePower(a *tam.Architecture, s *Schedule, budget int64) error {
	if budget <= 0 {
		return nil
	}
	// Sweep the slot boundaries.
	for _, probe := range s.Slots {
		if probe.Time <= 0 {
			continue
		}
		var inUse int64
		for _, sl := range s.Slots {
			if sl.Time <= 0 {
				continue
			}
			if sl.Begin <= probe.Begin && probe.Begin < sl.End {
				inUse += GroupPower(a, sl.Group)
			}
		}
		if inUse > budget {
			return fmt.Errorf("sischedule: power %d in use at t=%d exceeds budget %d", inUse, probe.Begin, budget)
		}
	}
	return nil
}
