package sischedule

import (
	"fmt"

	"sitam/internal/tam"
)

// The test oracle: a from-scratch implementation of the paper's
// CalculateSITestTime procedure and Algorithm 1 (Fig. 5). It costs
// every group on every rail afresh and packs the groups with its own
// list scheduler, sharing with the Planner only the constraint tables
// and their admissibility rule. TestPlannerMatchesOracle,
// FuzzPlannerMatchesOracle and the scenario differential
// (TestPlannerMatchesOracleOnScenarios) require the Planner to
// reproduce its schedules exactly.

// oracleCalculateSITestTime computes, for every group, its testing
// time under the given architecture.
//
// Core WOCs and group membership live in dense ID-indexed slices with
// membership epoch-stamped per group, and all groups' Rails/PerRail
// slices are carved out of two shared arenas.
func oracleCalculateSITestTime(a *tam.Architecture, groups []*Group, m Model) ([]GroupTime, error) {
	out := make([]GroupTime, len(groups))
	maxID := -1
	for _, c := range a.SOC.Cores() {
		if c.ID > maxID {
			maxID = c.ID
		}
	}
	// wocByID[id] is the core's WOC, or -1 for IDs that name no core.
	wocByID := make([]int64, maxID+1)
	for i := range wocByID {
		wocByID[i] = -1
	}
	for _, c := range a.SOC.Cores() {
		wocByID[c.ID] = int64(c.WOC())
	}
	// inGroup[id] == epoch marks membership in the current group; a new
	// epoch invalidates all marks at once, so the slice is written only
	// for the group's own cores.
	inGroup := make([]uint32, maxID+1)
	var epoch uint32
	// Shared arenas for every group's Rails/PerRail. Slice headers are
	// fixed up after the fill, when the backing arrays stop moving.
	railsArena := make([]int, 0, 4*len(groups))
	perArena := make([]int64, 0, 4*len(groups))
	offs := make([]int, len(groups)+1)
	for gi, g := range groups {
		epoch++
		for _, id := range g.Cores {
			if id < 0 || id >= len(wocByID) || wocByID[id] < 0 {
				return nil, fmt.Errorf("sischedule: group %q involves unknown core %d", g.Name, id)
			}
			inGroup[id] = epoch
		}
		gt := GroupTime{Bottleneck: -1}
		offs[gi] = len(railsArena)
		for ri := range a.Rails {
			r := a.Rails[ri]
			var shift int64
			nCare := 0
			for _, id := range r.Cores {
				if inGroup[id] == epoch {
					shift += ceilDiv(wocByID[id], int64(r.Width))
					nCare++
				}
			}
			if nCare == 0 {
				continue // rail not involved
			}
			perPattern := shift + m.Bypass*int64(len(r.Cores)-nCare) + m.Overhead
			t := g.Patterns * perPattern
			railsArena = append(railsArena, ri)
			perArena = append(perArena, t)
			if t > gt.Time || gt.Bottleneck < 0 {
				gt.Time = t
				gt.Bottleneck = ri
			}
		}
		out[gi] = gt
	}
	offs[len(groups)] = len(railsArena)
	for gi := range out {
		if offs[gi] == offs[gi+1] {
			continue // no involved rails: keep Rails/PerRail nil
		}
		out[gi].Rails = railsArena[offs[gi]:offs[gi+1]:offs[gi+1]]
		out[gi].PerRail = perArena[offs[gi]:offs[gi+1]:offs[gi+1]]
	}
	return out, nil
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// oracleScheduleSITest schedules the groups with Algorithm 1 under an
// optional compiled constraint set and refreshes each rail's TimeSI,
// the contract of ScheduleSITestCons without tracing.
func oracleScheduleSITest(a *tam.Architecture, groups []*Group, m Model, cons *Constraints) (*Schedule, error) {
	times, err := oracleCalculateSITestTime(a, groups, m)
	if err != nil {
		return nil, err
	}
	if err := cons.Feasible(groups, times); err != nil {
		return nil, err
	}
	sched := &Schedule{
		Slots:  make([]Slot, 0, len(groups)),
		RailSI: make([]int64, len(a.Rails)),
	}

	type pending struct {
		g     *Group
		gt    GroupTime
		gi    int32 // index into groups (constraint tables)
		power int64
	}
	// endOf[gi] is group gi's finish time, or -1 while unscheduled;
	// runningG[gi] marks gi currently occupying its rails. Only used
	// under constraints.
	var endOf []int64
	var runningG []bool
	if cons != nil {
		endOf = make([]int64, len(groups))
		for i := range endOf {
			endOf[i] = -1
		}
		runningG = make([]bool, len(groups))
	}
	unsched := make([]pending, 0, len(groups))
	for i, g := range groups {
		// Groups that touch no rail (no involved cores or zero rails)
		// take no time; record them as zero-length slots at t=0. They
		// are exempt from constraints and count as finished immediately.
		if len(times[i].Rails) == 0 || g.Patterns == 0 {
			sched.Slots = append(sched.Slots, Slot{Group: g, GroupTime: times[i]})
			for j, ri := range times[i].Rails {
				sched.RailSI[ri] += times[i].PerRail[j]
			}
			if cons != nil {
				endOf[i] = 0
			}
			continue
		}
		p := pending{g: g, gt: times[i], gi: int32(i)}
		if cons != nil {
			p.power = cons.GroupPower[i]
		}
		unsched = append(unsched, p)
	}

	busy := make([]bool, len(a.Rails)) // currSchedTAMs
	type running struct {
		end   int64
		rails []int
		gi    int32
		power int64
	}
	active := make([]running, 0, len(a.Rails))
	var currTime, powerInUse int64

	for len(unsched) > 0 {
		// Find the first unscheduled group whose rails are all free and,
		// under constraints, whose power fits, predecessors finished and
		// exclusion partners idle.
		found := -1
		for i, p := range unsched {
			if cons != nil && !cons.admissible(p.gi, p.power, powerInUse, currTime, endOf, runningG) {
				continue
			}
			ok := true
			for _, ri := range p.gt.Rails {
				if busy[ri] {
					ok = false
					break
				}
			}
			if ok {
				found = i
				break
			}
		}
		if found >= 0 {
			p := unsched[found]
			unsched = append(unsched[:found], unsched[found+1:]...)
			slot := Slot{Group: p.g, GroupTime: p.gt, Begin: currTime, End: currTime + p.gt.Time, Power: p.power}
			sched.Slots = append(sched.Slots, slot)
			for j, ri := range p.gt.Rails {
				busy[ri] = true
				sched.RailSI[ri] += p.gt.PerRail[j]
			}
			active = append(active, running{slot.End, p.gt.Rails, p.gi, p.power})
			powerInUse += p.power
			if cons != nil {
				endOf[p.gi] = slot.End
				runningG[p.gi] = true
			}
			if slot.End > sched.TotalSI {
				sched.TotalSI = slot.End
			}
			continue
		}
		// No group fits: advance to the earliest end after currTime and
		// release its rails (Lines 13-16).
		var next int64 = -1
		for _, r := range active {
			if r.end > currTime && (next < 0 || r.end < next) {
				next = r.end
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("sischedule: deadlock — %d groups unscheduled with no active group", len(unsched))
		}
		currTime = next
		keep := active[:0]
		for _, r := range active {
			if r.end > currTime {
				keep = append(keep, r)
			} else {
				for _, ri := range r.rails {
					busy[ri] = false
				}
				powerInUse -= r.power
				if cons != nil {
					runningG[r.gi] = false
				}
			}
		}
		active = keep
	}

	for i, t := range sched.RailSI {
		a.Rails[i].SetTimeSI(t)
	}
	return sched, nil
}
