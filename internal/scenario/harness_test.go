package scenario

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sitam/internal/core"
	"sitam/internal/sischedule"
)

// sweepSeeds returns how many scenarios the generative sweep covers:
// SITAM_SCENARIO_SEEDS when set (the CI scenario-smoke job passes
// 200), otherwise a fast default.
func sweepSeeds(t *testing.T) int64 {
	if v := os.Getenv("SITAM_SCENARIO_SEEDS"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			t.Fatalf("bad SITAM_SCENARIO_SEEDS %q", v)
		}
		return n
	}
	if testing.Short() {
		return 10
	}
	return 40
}

// persistFailure shrinks a failing scenario to a minimal reproduction
// and freezes it under testdata/, where TestFrozenScenarios replays it
// on every run until the underlying bug is fixed.
func persistFailure(t *testing.T, sc *Scenario, origErr error) {
	t.Helper()
	fails := func(cand *Scenario) bool {
		if cand.Validate() != nil {
			return false
		}
		_, err := Solve(cand)
		return err != nil
	}
	repro := sc
	if fails(sc) {
		repro = Shrink(sc, fails)
	}
	name := filepath.Join("testdata", fmt.Sprintf("failing-seed%d.scenario", sc.Seed))
	var buf bytes.Buffer
	if err := Write(&buf, repro); err != nil {
		t.Errorf("serializing reproduction: %v", err)
		return
	}
	if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
		t.Errorf("freezing reproduction: %v", err)
		return
	}
	t.Errorf("seed %d: %v\nminimal reproduction frozen at %s (%d cores, %d groups)",
		sc.Seed, origErr, name, repro.SOC.NumCores(), len(repro.Groups))
}

// TestScenarioSweep is the generative differential harness: every
// seeded scenario (100-1000 cores, randomized constraints) is solved
// by the production scheduler and checked by the compiled validator
// and the independent checker. A violation is shrunk and frozen under
// testdata/.
func TestScenarioSweep(t *testing.T) {
	n := sweepSeeds(t)
	for seed := int64(1); seed <= n; seed++ {
		sc := Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid scenario: %v", seed, err)
		}
		if _, err := Solve(sc); err != nil {
			persistFailure(t, sc, err)
		}
	}
}

// TestFrozenScenarios replays every scenario frozen under testdata/ —
// both the seeded regression corpus and any minimal reproductions the
// sweep persisted. All of them must solve cleanly.
func TestFrozenScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no frozen scenarios under testdata/ — the seeded corpus is missing")
	}
	for _, name := range files {
		name := name
		t.Run(filepath.Base(name), func(t *testing.T) {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Parse(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Solve(sc); err != nil {
				t.Fatalf("frozen scenario fails: %v", err)
			}
		})
	}
}

// TestEngineOnScenarios runs small constrained scenarios through the
// full TAM optimization (Algorithm 2) and validates the resulting
// schedule — on the architecture the optimizer designed, not the
// scenario's fixed rails — with the independent checker. This is the
// end-to-end leg of the differential harness: constraints travel on
// the SOC, so the engine path needs no scenario-specific wiring.
func TestEngineOnScenarios(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sc := GenerateConfig(Config{MinCores: 10, MaxCores: 40, MaxGroups: 25}, seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := core.Solve(context.Background(),
			core.Problem{SOC: sc.SOC, Wmax: 24, Groups: sc.Groups, Model: sc.Model()}, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: optimization: %v", seed, err)
		}
		inst := sc.InstanceForRails(RailsOf(res.Architecture))
		if err := inst.Check(Slots(res.Schedule), res.Schedule.TotalSI); err != nil {
			t.Errorf("seed %d: engine schedule rejected by independent checker: %v", seed, err)
		}
		if res.Breakdown.TimeSI != res.Schedule.TotalSI {
			t.Errorf("seed %d: breakdown T_si=%d but schedule says %d", seed, res.Breakdown.TimeSI, res.Schedule.TotalSI)
		}
	}
}

// TestExactOnScenarios pins the constrained branch-and-bound against
// the greedy scheduler on tiny scenarios: the exact optimum is never
// worse, and its schedule is achievable (the greedy result bounds it
// from above).
func TestExactOnScenarios(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sc := GenerateConfig(Config{MinCores: 8, MaxCores: 14, MaxGroups: 6}, seed)
		arch, err := sc.Architecture()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := sc.Model()
		cons, err := sischedule.CompileConstraints(sc.SOC, sc.SOC.Constraints, sc.Groups)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		greedy, err := sischedule.ScheduleSITestCons(arch, sc.Groups, m, cons, nil)
		if err != nil {
			t.Fatalf("seed %d: greedy: %v", seed, err)
		}
		exact, _, _, err := sischedule.ExactSchedule(context.Background(), arch, sc.Groups, m, cons)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		if exact > greedy.TotalSI {
			t.Errorf("seed %d: exact %d worse than greedy %d", seed, exact, greedy.TotalSI)
		}
	}
}

// TestChaosDeterminism is the chaos-style gate: one seed, two fully
// independent end-to-end runs at different worker counts, byte-equal
// outputs — scenario bytes, designed architecture, schedule and
// breakdown.
func TestChaosDeterminism(t *testing.T) {
	const seed = 11
	type outcome struct {
		scenario string
		arch     string
		sched    string
		tsoc     int64
	}
	runAt := func(workers int) outcome {
		sc := GenerateConfig(Config{MinCores: 12, MaxCores: 30, MaxGroups: 15}, seed)
		var buf bytes.Buffer
		if err := Write(&buf, sc); err != nil {
			t.Fatal(err)
		}
		cfg := core.ParallelConfig{Workers: workers}
		res, err := core.TAMOptimizationWith(context.Background(), sc.SOC, 16, sc.Groups, sc.Model(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{
			scenario: buf.String(),
			arch:     res.Architecture.String(),
			sched:    res.Schedule.String(),
			tsoc:     res.Breakdown.TimeSOC,
		}
	}
	a, b := runAt(1), runAt(4)
	if a.scenario != b.scenario {
		t.Error("scenario bytes differ between runs")
	}
	if a.arch != b.arch {
		t.Errorf("architectures differ:\n%s\nvs\n%s", a.arch, b.arch)
	}
	if a.sched != b.sched {
		t.Errorf("schedules differ:\n%s\nvs\n%s", a.sched, b.sched)
	}
	if a.tsoc != b.tsoc {
		t.Errorf("T_soc differs: %d vs %d", a.tsoc, b.tsoc)
	}
}
