package sitam

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// optimize is Solve under a background context with the default model.
func optimize(s *SOC, wmax int, groups []*Group, o Options) (*Result, error) {
	return Solve(context.Background(), Problem{SOC: s, Wmax: wmax, Groups: groups, Model: DefaultModel()}, o)
}

// TestFacadeEndToEnd drives the whole public API the way the package
// documentation advertises.
func TestFacadeEndToEnd(t *testing.T) {
	if got := Benchmarks(); len(got) != 3 {
		t.Fatalf("Benchmarks = %v", got)
	}
	s, err := LoadBenchmark("p34392")
	if err != nil {
		t.Fatal(err)
	}

	patterns, err := GeneratePatterns(s, GenConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := BuildGroups(s, patterns, GroupingOptions{Parts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if groups.Stats.Original != 2000 {
		t.Errorf("Original = %d", groups.Stats.Original)
	}

	res, err := optimize(s, 16, groups.Groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Architecture.Validate(); err != nil {
		t.Fatal(err)
	}
	base, err := optimize(s, 16, groups.Groups, Options{Method: MethodBaseline})
	if err != nil {
		t.Fatal(err)
	}
	// Both optimizers are heuristics, so neither strictly dominates the
	// other on a single objective; but the baseline optimizes InTest
	// only and should stay in the same ballpark on it.
	if float64(base.Breakdown.TimeIn) > 1.15*float64(res.Breakdown.TimeIn) {
		t.Errorf("baseline InTest %d far above SI-aware %d",
			base.Breakdown.TimeIn, res.Breakdown.TimeIn)
	}

	sched, err := ScheduleSI(res.Architecture, groups.Groups, DefaultModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalSI != res.Breakdown.TimeSI {
		t.Errorf("re-scheduled T_si %d != result %d", sched.TotalSI, res.Breakdown.TimeSI)
	}
}

func TestFacadeSOCRoundTrip(t *testing.T) {
	s, err := LoadBenchmark("p93791")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSOC(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSOC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumCores() != s.NumCores() {
		t.Errorf("round trip lost cores: %d vs %d", s2.NumCores(), s.NumCores())
	}
}

func TestFacadeTopologyPath(t *testing.T) {
	s, err := LoadBenchmark("p34392")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := RandomTopology(s, TopologyConfig{FanOut: 1, Width: 4, BusFraction: 0.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := MAPatterns(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ma) != 6*len(topo.Nets) {
		t.Errorf("MA patterns = %d, want %d", len(ma), 6*len(topo.Nets))
	}
	mt, err := ReducedMTPatterns(topo, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt) == 0 {
		t.Error("no reduced MT patterns")
	}
	groups, err := BuildGroups(s, ma, GroupingOptions{Parts: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups.Groups) == 0 {
		t.Error("topology patterns produced no groups")
	}
}

func TestFacadeInTestTime(t *testing.T) {
	s, err := LoadBenchmark("p34392")
	if err != nil {
		t.Fatal(err)
	}
	c := s.CoreByID(18)
	t1, err := InTestTime(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := InTestTime(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t16 >= t1 {
		t.Errorf("width 16 (%d) not faster than width 1 (%d)", t16, t1)
	}
}

// TestFacadeBuildGroupsRejectsBadSymbol hands BuildGroups a pattern
// whose care symbol lies above Fall: grouping must fail and name the
// pattern instead of packing a corrupted care.
func TestFacadeBuildGroupsRejectsBadSymbol(t *testing.T) {
	s, err := LoadBenchmark("d695")
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := GeneratePatterns(s, GenConfig{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	patterns[3].Care[0].Sym = 7
	if _, err := BuildGroups(s, patterns, GroupingOptions{Parts: 2, Seed: 1}); err == nil || !strings.Contains(err.Error(), "pattern 3") {
		t.Fatalf("BuildGroups: err = %v, want an error naming pattern 3", err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	s, err := LoadBenchmark("d695")
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := GeneratePatterns(s, GenConfig{N: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroups(s, patterns, GroupingOptions{Parts: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimize(s, 12, gr.Groups, Options{Method: MethodILS, Kicks: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Architecture.Validate(); err != nil {
		t.Fatal(err)
	}

	plain, err := optimize(s, 12, gr.Groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TimeSOC > plain.Breakdown.TimeSOC {
		t.Errorf("ILS %d worse than plain %d", res.Breakdown.TimeSOC, plain.Breakdown.TimeSOC)
	}

	opt, _, err := ExactScheduleSI(context.Background(), res.Architecture, gr.Groups, DefaultModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TimeSI < opt {
		t.Errorf("Algorithm 1 T_si %d below exact optimum %d", res.Breakdown.TimeSI, opt)
	}

	unlimited, err := ScheduleSIPower(res.Architecture, gr.Groups, DefaultModel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.TotalSI != res.Breakdown.TimeSI {
		t.Errorf("unlimited power schedule %d != Algorithm 1 %d", unlimited.TotalSI, res.Breakdown.TimeSI)
	}

	lb, err := InTestLowerBound(s, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TimeIn < lb {
		t.Errorf("InTest %d below lower bound %d", res.Breakdown.TimeIn, lb)
	}
}

func TestFacadeRunTable(t *testing.T) {
	s, err := LoadBenchmark("p34392")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := RunTableCtx(context.Background(), s, TableConfig{Widths: []int{8}, Nr: []int{1000}, Groupings: []int{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != 1 || tbl.Cells[0].Tmin <= 0 {
		t.Errorf("table = %+v", tbl)
	}
	if !strings.Contains(tbl.Format(), "p34392") {
		t.Error("Format missing SOC name")
	}
}

// TestConstraintsForOtherGroupsRejected compiles d695 constraints for
// the g=2 grouping and schedules the g=4 groups with them, and the
// other way round: both schedulers must refuse the mismatch with
// ErrInvalidConstraints rather than fail inside or schedule silently.
func TestConstraintsForOtherGroupsRejected(t *testing.T) {
	s, err := LoadBenchmark("d695")
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := GeneratePatterns(s, GenConfig{N: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grouping := func(parts int) []*Group {
		t.Helper()
		gr, err := BuildGroups(s, patterns, GroupingOptions{Parts: parts, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return gr.Groups
	}
	g2, g4 := grouping(2), grouping(4)
	if len(g2) == len(g4) {
		t.Fatalf("groupings of %d and %d groups: the test needs different lengths", len(g2), len(g4))
	}
	res, err := optimize(s, 16, g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Constraints = &ConstraintSet{PowerBudget: 1 << 40}
	for _, tc := range []struct{ compiled, scheduled []*Group }{{g2, g4}, {g4, g2}} {
		cons, err := CompileConstraints(s, tc.compiled)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ScheduleSI(res.Architecture, tc.scheduled, DefaultModel(), cons)
		if !errors.Is(err, ErrInvalidConstraints) || errors.Is(err, ErrInternal) {
			t.Errorf("ScheduleSI with constraints for %d groups on %d: err = %v, want ErrInvalidConstraints",
				len(tc.compiled), len(tc.scheduled), err)
		}
		_, _, err = ExactScheduleSI(context.Background(), res.Architecture, tc.scheduled, DefaultModel(), cons)
		if !errors.Is(err, ErrInvalidConstraints) || errors.Is(err, ErrInternal) {
			t.Errorf("ExactScheduleSI with constraints for %d groups on %d: err = %v, want ErrInvalidConstraints",
				len(tc.compiled), len(tc.scheduled), err)
		}
	}
}
