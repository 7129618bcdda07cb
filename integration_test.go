package sitam

// Integration tests exercising the full pipeline across subsystem
// boundaries, including property-style tests over randomly generated
// SOCs.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sitam/internal/core"
	"sitam/internal/sischedule"
)

// randomSOC builds a structurally valid random SOC.
func randomSOC(rng *rand.Rand) *SOC {
	n := 3 + rng.Intn(8)
	s := &SOC{Name: fmt.Sprintf("rand%d", n), BusWidth: 8 * (1 + rng.Intn(4))}
	for id := 1; id <= n; id++ {
		c := &Core{
			ID:       id,
			Inputs:   1 + rng.Intn(40),
			Outputs:  2 + rng.Intn(40),
			Bidirs:   rng.Intn(5),
			Patterns: 1 + rng.Intn(300),
		}
		for j := rng.Intn(6); j > 0; j-- {
			c.ScanChains = append(c.ScanChains, 1+rng.Intn(200))
		}
		s.CoreList = append(s.CoreList, c)
	}
	return s
}

func TestPipelinePropertyRandomSOCs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSOC(rng)
		if err := s.Validate(); err != nil {
			t.Logf("seed %d: invalid SOC: %v", seed, err)
			return false
		}
		patterns, err := GeneratePatterns(s, GenConfig{N: 200, Seed: seed})
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		parts := 1 + rng.Intn(3)
		if parts > s.NumCores() {
			parts = s.NumCores()
		}
		gr, err := BuildGroups(s, patterns, GroupingOptions{Parts: parts, Seed: seed})
		if err != nil {
			t.Logf("seed %d: groups: %v", seed, err)
			return false
		}
		var weight int64
		for _, ps := range gr.GroupPatterns {
			for _, p := range ps {
				weight += int64(p.Weight)
			}
		}
		if weight != 200 {
			t.Logf("seed %d: weight %d != 200", seed, weight)
			return false
		}
		wmax := 1 + rng.Intn(2*s.NumCores())
		res, err := optimize(s, wmax, gr.Groups, Options{})
		if err != nil {
			t.Logf("seed %d: optimize: %v", seed, err)
			return false
		}
		if err := res.Architecture.Validate(); err != nil {
			t.Logf("seed %d: invalid architecture: %v", seed, err)
			return false
		}
		if res.Architecture.TotalWidth() > wmax {
			t.Logf("seed %d: width %d > %d", seed, res.Architecture.TotalWidth(), wmax)
			return false
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Logf("seed %d: invalid schedule: %v", seed, err)
			return false
		}
		if res.Breakdown.TimeSOC != res.Breakdown.TimeIn+res.Breakdown.TimeSI {
			t.Logf("seed %d: inconsistent breakdown", seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPipelineBothBenchmarksAllGroupings(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark pipeline is slow")
	}
	for _, name := range Benchmarks() {
		s, err := LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		patterns, err := GeneratePatterns(s, GenConfig{N: 3000, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []int{1, 2, 4, 8} {
			gr, err := BuildGroups(s, patterns, GroupingOptions{Parts: g, Seed: 9})
			if err != nil {
				t.Fatalf("%s g=%d: %v", name, g, err)
			}
			res, err := optimize(s, 24, gr.Groups, Options{})
			if err != nil {
				t.Fatalf("%s g=%d: %v", name, g, err)
			}
			if err := res.Architecture.Validate(); err != nil {
				t.Fatalf("%s g=%d: %v", name, g, err)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatalf("%s g=%d: %v", name, g, err)
			}
			// Scheduling the same groups on the same architecture again
			// must reproduce T_si exactly (determinism across the
			// subsystem boundary).
			sched, err := ScheduleSI(res.Architecture, gr.Groups, DefaultModel(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if sched.TotalSI != res.Breakdown.TimeSI {
				t.Errorf("%s g=%d: re-schedule T_si %d != %d", name, g, sched.TotalSI, res.Breakdown.TimeSI)
			}
		}
	}
}

func TestSerialSchedulingNeverFaster(t *testing.T) {
	s, err := LoadBenchmark("p34392")
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := GeneratePatterns(s, GenConfig{N: 2000, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroups(s, patterns, GroupingOptions{Parts: 8, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimize(s, 32, gr.Groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sischedule.SerialTime(res.Architecture, gr.Groups, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if serial < res.Breakdown.TimeSI {
		t.Errorf("serial T_si %d beats overlapped %d", serial, res.Breakdown.TimeSI)
	}
}

func TestGroupingNeverLosesPatternsAcrossSeeds(t *testing.T) {
	s, err := LoadBenchmark("p93791")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		patterns, err := GeneratePatterns(s, GenConfig{N: 1000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []int{1, 4} {
			gr, err := BuildGroups(s, patterns, GroupingOptions{Parts: g, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if gr.Stats.Original != 1000 {
				t.Errorf("seed %d g=%d: original %d", seed, g, gr.Stats.Original)
			}
			total := 0
			for _, grp := range gr.Groups {
				total += int(grp.Patterns)
			}
			if total != gr.TotalCompacted() {
				t.Errorf("seed %d g=%d: group counts %d != compacted %d", seed, g, total, gr.TotalCompacted())
			}
		}
	}
}

// TestBaselineMatchesEngineInTestObjective pins the relationship the
// tables rely on: the T_[8] column's InTest component is exactly what
// the InTest-only engine produced.
func TestBaselineMatchesEngineInTestObjective(t *testing.T) {
	s, err := LoadBenchmark("p34392")
	if err != nil {
		t.Fatal(err)
	}
	groups := []*Group{{Name: "g", Cores: s.SortedIDs(), Patterns: 100}}
	res, err := optimize(s, 24, groups, Options{Method: MethodBaseline})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(s, 24, core.InTestEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	_, obj, _, err := eng.OptimizeCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TimeIn != obj {
		t.Errorf("baseline InTest %d != engine objective %d", res.Breakdown.TimeIn, obj)
	}
}
