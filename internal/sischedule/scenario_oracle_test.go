package sischedule_test

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"sitam/internal/scenario"
	"sitam/internal/sischedule"
)

// TestPlannerMatchesOracleOnScenarios schedules the scenario
// generator's constrained instances (100-1000 cores, the seeds of the
// scenario sweep: SITAM_SCENARIO_SEEDS when set) with the production
// planner and with the from-scratch oracle, and requires the same
// schedule, rail TimeSI and memoized Cost total.
func TestPlannerMatchesOracleOnScenarios(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 10
	}
	if v := os.Getenv("SITAM_SCENARIO_SEEDS"); v != "" {
		var err error
		if n, err = strconv.ParseInt(v, 10, 64); err != nil || n < 1 {
			t.Fatalf("bad SITAM_SCENARIO_SEEDS %q", v)
		}
	}
	for seed := int64(1); seed <= n; seed++ {
		sc := scenario.Generate(seed)
		arch, err := sc.Architecture()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := sc.Model()
		cons, err := sischedule.CompileConstraints(sc.SOC, sc.SOC.Constraints, sc.Groups)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oa, pa, ca := arch.Clone(), arch.Clone(), arch.Clone()
		want, err := sischedule.OracleScheduleSITest(oa, sc.Groups, m, cons)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		got, err := sischedule.ScheduleSITestCons(pa, sc.Groups, m, cons, nil)
		if err != nil {
			t.Fatalf("seed %d: planner: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: planner schedule differs from the oracle's:\n%s\nvs\n%s", seed, got, want)
		}
		total, _, err := sischedule.NewMemoPlanner(sc.Groups, m, cons).Cost(ca)
		if err != nil || total != want.TotalSI {
			t.Fatalf("seed %d: memoized Cost %d (err %v), oracle T_si %d", seed, total, err, want.TotalSI)
		}
		for i := range oa.Rails {
			if pa.Rails[i].TimeSI != oa.Rails[i].TimeSI || ca.Rails[i].TimeSI != oa.Rails[i].TimeSI {
				t.Fatalf("seed %d: rail %d TimeSI %d (Schedule) / %d (Cost), oracle %d",
					seed, i, pa.Rails[i].TimeSI, ca.Rails[i].TimeSI, oa.Rails[i].TimeSI)
			}
		}
	}
}
