package sischedule

import (
	"context"
	"errors"
	"testing"

	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

// disjointSetup builds four single-core rails so that the four
// one-core groups run fully concurrently under plain Algorithm 1
// (each takes ceil(8/2)·10 = 40 cycles; unconstrained T_si = 40).
func disjointSetup(t *testing.T) (*tam.Architecture, []*Group) {
	t.Helper()
	s := &soc.SOC{Name: "disjoint", BusWidth: 8}
	for id := 1; id <= 4; id++ {
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: 2, Outputs: 8, ScanChains: []int{5}, Patterns: 10,
		})
	}
	tt, err := wrapper.NewTimeTable(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := tam.New(s, tt)
	for id := 1; id <= 4; id++ {
		a.AddRail([]int{id}, 2)
	}
	groups := []*Group{
		{Name: "A", Cores: []int{1}, Patterns: 10},
		{Name: "B", Cores: []int{2}, Patterns: 10},
		{Name: "C", Cores: []int{3}, Patterns: 10},
		{Name: "D", Cores: []int{4}, Patterns: 10},
	}
	return a, groups
}

func compile(t *testing.T, a *tam.Architecture, groups []*Group, cs *soc.ConstraintSet) *Constraints {
	t.Helper()
	cons, err := CompileConstraints(a.SOC, cs, groups)
	if err != nil {
		t.Fatal(err)
	}
	return cons
}

func TestCompileConstraintsEmpty(t *testing.T) {
	a, groups := disjointSetup(t)
	for _, cs := range []*soc.ConstraintSet{nil, {}} {
		cons, err := CompileConstraints(a.SOC, cs, groups)
		if err != nil || cons != nil {
			t.Errorf("CompileConstraints(%v) = %v, %v; want nil, nil", cs, cons, err)
		}
	}
}

func TestCompileConstraintsLifting(t *testing.T) {
	a, groups := disjointSetup(t)
	cons := compile(t, a, groups, &soc.ConstraintSet{
		PowerBudget: 100,
		CorePower:   map[int]int64{2: 50},
		Precedences: []soc.Precedence{{Before: 1, After: 3}},
		Exclusions:  [][]int{{2, 4}},
	})
	// Group powers: WOC default (8) except core 2's override.
	want := []int64{8, 50, 8, 8}
	for gi, w := range want {
		if cons.GroupPower[gi] != w {
			t.Errorf("GroupPower[%d] = %d, want %d", gi, cons.GroupPower[gi], w)
		}
	}
	// Precede 1 3 lifts to edge A -> C (group indices 0 -> 2).
	if len(cons.preds[2]) != 1 || cons.preds[2][0] != 0 {
		t.Errorf("preds[C] = %v, want [0]", cons.preds[2])
	}
	// Exclude 2 4 lifts to the symmetric pair B <-> D (indices 1, 3).
	if len(cons.excl[1]) != 1 || cons.excl[1][0] != 3 ||
		len(cons.excl[3]) != 1 || cons.excl[3][0] != 1 {
		t.Errorf("excl = %v / %v, want [3] / [1]", cons.excl[1], cons.excl[3])
	}
}

func TestCompileBothEndpointGroupExempt(t *testing.T) {
	a, _ := disjointSetup(t)
	// One group holds both endpoint cores: the edge is internally
	// satisfied and must not lift to a self- or cross-edge.
	groups := []*Group{
		{Name: "AB", Cores: []int{1, 2}, Patterns: 10},
		{Name: "C", Cores: []int{3}, Patterns: 10},
	}
	cons := compile(t, a, groups, &soc.ConstraintSet{
		Precedences: []soc.Precedence{{Before: 1, After: 2}},
	})
	for gi := range groups {
		if len(cons.preds[gi]) != 0 {
			t.Errorf("preds[%d] = %v, want none", gi, cons.preds[gi])
		}
	}
}

func TestCompileLiftedCycleRejected(t *testing.T) {
	a, _ := disjointSetup(t)
	// Core-level relation 1->3, 4->2 is acyclic, but over groups
	// G1={1,2}, G2={3,4} it lifts to G1->G2 and G2->G1.
	groups := []*Group{
		{Name: "G1", Cores: []int{1, 2}, Patterns: 10},
		{Name: "G2", Cores: []int{3, 4}, Patterns: 10},
	}
	_, err := CompileConstraints(a.SOC, &soc.ConstraintSet{
		Precedences: []soc.Precedence{{Before: 1, After: 3}, {Before: 4, After: 2}},
	}, groups)
	if err == nil {
		t.Fatal("lifted cycle accepted")
	}
	if !errors.Is(err, soc.ErrInvalid) {
		t.Fatalf("error %v does not wrap soc.ErrInvalid", err)
	}
}

func TestPowerBudgetLimitsConcurrency(t *testing.T) {
	a, groups := disjointSetup(t)
	cons := compile(t, a, groups, &soc.ConstraintSet{PowerBudget: 16})
	sched, err := ScheduleSITestCons(a, groups, Model{}, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each group needs 8 of the 16 budget: two at a time, T = 80.
	if sched.TotalSI != 80 {
		t.Errorf("T_si = %d, want 80\n%s", sched.TotalSI, sched)
	}
	if err := sched.Validate(); err != nil {
		t.Error(err)
	}
	if err := cons.ValidateSchedule(groups, sched); err != nil {
		t.Error(err)
	}
	for _, sl := range sched.Slots {
		if sl.Power != 8 {
			t.Errorf("slot %s power = %d, want 8", sl.Group.Name, sl.Power)
		}
	}
}

func TestPrecedenceForcesOrder(t *testing.T) {
	a, groups := disjointSetup(t)
	cons := compile(t, a, groups, &soc.ConstraintSet{
		Precedences: []soc.Precedence{{Before: 1, After: 2}, {Before: 2, After: 3}},
	})
	sched, err := ScheduleSITestCons(a, groups, Model{}, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Chain A -> B -> C serializes three of the four groups: T = 120.
	if sched.TotalSI != 120 {
		t.Errorf("T_si = %d, want 120\n%s", sched.TotalSI, sched)
	}
	begin := map[string]int64{}
	end := map[string]int64{}
	for _, sl := range sched.Slots {
		begin[sl.Group.Name] = sl.Begin
		end[sl.Group.Name] = sl.End
	}
	if begin["B"] < end["A"] || begin["C"] < end["B"] {
		t.Errorf("precedence violated: A=[%d,%d) B=[%d,%d) C=[%d,%d)",
			begin["A"], end["A"], begin["B"], end["B"], begin["C"], end["C"])
	}
	if begin["D"] != 0 {
		t.Errorf("unconstrained group D delayed to %d", begin["D"])
	}
	if err := cons.ValidateSchedule(groups, sched); err != nil {
		t.Error(err)
	}
}

func TestExclusionSerializes(t *testing.T) {
	a, groups := disjointSetup(t)
	cons := compile(t, a, groups, &soc.ConstraintSet{Exclusions: [][]int{{1, 2, 3}}})
	sched, err := ScheduleSITestCons(a, groups, Model{}, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A, B, C are pairwise exclusive: T = 120; D overlaps freely.
	if sched.TotalSI != 120 {
		t.Errorf("T_si = %d, want 120\n%s", sched.TotalSI, sched)
	}
	if err := cons.ValidateSchedule(groups, sched); err != nil {
		t.Error(err)
	}
}

func TestNilConsIdenticalToUnconstrained(t *testing.T) {
	s, tt := fig3SOC(t)
	a := tam.New(s, tt)
	a.AddRail([]int{1, 2}, 2)
	a.AddRail([]int{3, 4}, 2)
	a.AddRail([]int{5}, 2)
	ref, err := ScheduleSITest(a, fig3Groups(), DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScheduleSITestCons(a, fig3Groups(), DefaultModel(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.String() != got.String() {
		t.Errorf("nil-cons schedule differs:\n%s\nvs\n%s", ref, got)
	}
}

func TestPlannerMatchesConstrainedScheduler(t *testing.T) {
	cases := []*soc.ConstraintSet{
		{PowerBudget: 16},
		{PowerBudget: 8},
		{Precedences: []soc.Precedence{{Before: 1, After: 2}, {Before: 2, After: 3}}},
		{Exclusions: [][]int{{1, 2, 3}}},
		{PowerBudget: 24, CorePower: map[int]int64{1: 20},
			Precedences: []soc.Precedence{{Before: 4, After: 1}},
			Exclusions:  [][]int{{2, 3}}},
	}
	for i, cs := range cases {
		a, groups := disjointSetup(t)
		cons := compile(t, a, groups, cs)
		sched, err := oracleScheduleSITest(a, groups, Model{}, cons)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		p := NewMemoPlanner(groups, Model{}, cons)
		for pass := 0; pass < 2; pass++ { // cold memo, then warm
			total, _, err := p.Cost(a)
			if err != nil {
				t.Fatalf("case %d pass %d: %v", i, pass, err)
			}
			if total != sched.TotalSI {
				t.Errorf("case %d pass %d: planner cost %d != scheduler %d", i, pass, total, sched.TotalSI)
			}
		}
		for ri, r := range a.Rails {
			if r.TimeSI != sched.RailSI[ri] {
				t.Errorf("case %d: rail %d TimeSI %d != schedule %d", i, ri, r.TimeSI, sched.RailSI[ri])
			}
		}
	}
}

func TestExactConsMatchesGreedyOnSerialChain(t *testing.T) {
	a, groups := disjointSetup(t)
	cons := compile(t, a, groups, &soc.ConstraintSet{
		Precedences: []soc.Precedence{
			{Before: 1, After: 2}, {Before: 2, After: 3}, {Before: 3, After: 4},
		},
	})
	sched, err := ScheduleSITestCons(a, groups, Model{}, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, _, err := ExactSchedule(context.Background(), a, groups, Model{}, cons)
	if err != nil {
		t.Fatal(err)
	}
	// A full chain admits exactly one order: both must hit 160.
	if exact != 160 || sched.TotalSI != 160 {
		t.Errorf("exact = %d, greedy = %d, want 160/160", exact, sched.TotalSI)
	}
}

func TestExactConsNeverBeatenByGreedy(t *testing.T) {
	cases := []*soc.ConstraintSet{
		nil,
		{PowerBudget: 16},
		{PowerBudget: 24},
		{Precedences: []soc.Precedence{{Before: 1, After: 2}}},
		{Exclusions: [][]int{{1, 2}, {3, 4}}},
		{PowerBudget: 16, Precedences: []soc.Precedence{{Before: 1, After: 4}}},
	}
	for i, cs := range cases {
		a, groups := disjointSetup(t)
		var cons *Constraints
		if cs != nil {
			cons = compile(t, a, groups, cs)
		}
		sched, err := ScheduleSITestCons(a, groups, Model{}, cons, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		exact, _, _, err := ExactSchedule(context.Background(), a, groups, Model{}, cons)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if exact > sched.TotalSI {
			t.Errorf("case %d: exact %d worse than greedy %d", i, exact, sched.TotalSI)
		}
	}
}

func TestExactConsNilMatchesUnconstrained(t *testing.T) {
	s, tt := fig3SOC(t)
	a := tam.New(s, tt)
	a.AddRail([]int{1, 2}, 2)
	a.AddRail([]int{3, 4}, 2)
	a.AddRail([]int{5}, 2)
	ref, _, _, err := ExactSchedule(context.Background(), a, fig3Groups(), DefaultModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A non-binding budget takes the constrained search, which must
	// find the unconstrained optimum.
	loose := compile(t, a, fig3Groups(), &soc.ConstraintSet{PowerBudget: 1 << 40})
	got, _, _, err := ExactSchedule(context.Background(), a, fig3Groups(), DefaultModel(), loose)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("non-binding constrained exact %d != unconstrained %d", got, ref)
	}
}

func TestValidateScheduleCatchesViolations(t *testing.T) {
	a, groups := disjointSetup(t)
	cons := compile(t, a, groups, &soc.ConstraintSet{
		PowerBudget: 16,
		Precedences: []soc.Precedence{{Before: 1, After: 2}},
		Exclusions:  [][]int{{3, 4}},
	})
	times, err := CalculateSITestTime(a, groups, Model{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(begins []int64) *Schedule {
		s := &Schedule{}
		for gi := range groups {
			s.Slots = append(s.Slots, Slot{
				Group: groups[gi], GroupTime: times[gi],
				Begin: begins[gi], End: begins[gi] + times[gi].Time,
			})
		}
		return s
	}
	// All four at t=0: 32 power > 16, B before A ends, C overlaps D.
	if err := cons.ValidateSchedule(groups, mk([]int64{0, 0, 0, 0})); err == nil {
		t.Error("power violation not caught")
	}
	// Power ok (two at a time), but B starts before A ends.
	if err := cons.ValidateSchedule(groups, mk([]int64{0, 20, 40, 80})); err == nil {
		t.Error("precedence violation not caught")
	}
	// Power ok, precedence ok, but C and D overlap.
	if err := cons.ValidateSchedule(groups, mk([]int64{0, 40, 80, 100})); err == nil {
		t.Error("exclusion violation not caught")
	}
	// A fully legal schedule passes.
	if err := cons.ValidateSchedule(groups, mk([]int64{0, 40, 80, 120})); err != nil {
		t.Errorf("legal schedule rejected: %v", err)
	}
	// And nil constraints validate anything.
	var nilCons *Constraints
	if err := nilCons.ValidateSchedule(groups, mk([]int64{0, 0, 0, 0})); err != nil {
		t.Errorf("nil constraints rejected a schedule: %v", err)
	}
}

func TestConstrainedInfeasibleGroup(t *testing.T) {
	a, groups := disjointSetup(t)
	cons := compile(t, a, groups, &soc.ConstraintSet{PowerBudget: 4})
	if _, err := oracleScheduleSITest(a, groups, Model{}, cons); err == nil {
		t.Error("scheduler accepted group hotter than the budget")
	}
	p := NewMemoPlanner(groups, Model{}, cons)
	if _, _, err := p.Cost(a); err == nil {
		t.Error("planner accepted group hotter than the budget")
	}
	if _, _, _, err := ExactSchedule(context.Background(), a, groups, Model{}, cons); err == nil {
		t.Error("exact accepted group hotter than the budget")
	}
}
