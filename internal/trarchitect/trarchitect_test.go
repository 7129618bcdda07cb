package trarchitect

import (
	"context"
	"testing"

	"sitam/internal/core"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// optimize runs the baseline serially and uncached, like socinfo.
func optimize(s *soc.SOC, wmax int) (*tam.Architecture, int64, error) {
	a, obj, _, err := OptimizeWithCtx(context.Background(), s, wmax, core.ParallelConfig{Workers: 1, CacheSize: -1})
	return a, obj, err
}

func TestOptimizeBenchmarksValid(t *testing.T) {
	for _, name := range soc.Benchmarks() {
		s := soc.MustLoadBenchmark(name)
		for _, w := range []int{8, 24, 64} {
			arch, obj, err := optimize(s, w)
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, w, err)
			}
			if err := arch.Validate(); err != nil {
				t.Fatalf("%s W=%d: %v", name, w, err)
			}
			if arch.TotalWidth() > w {
				t.Errorf("%s W=%d: width %d over budget", name, w, arch.TotalWidth())
			}
			if obj != arch.InTestTime() {
				t.Errorf("%s W=%d: objective %d != InTest time %d", name, w, obj, arch.InTestTime())
			}
		}
	}
}

func TestOptimizeImprovesWithWidth(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	t8, _, err := optimize(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	t32, _, err := optimize(s, 32)
	if err != nil {
		t.Fatal(err)
	}
	t64, _, err := optimize(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !(t64.InTestTime() < t32.InTestTime() && t32.InTestTime() < t8.InTestTime()) {
		t.Errorf("InTest time not improving: W=8:%d W=32:%d W=64:%d",
			t8.InTestTime(), t32.InTestTime(), t64.InTestTime())
	}
}

func TestP34392BottleneckFlattening(t *testing.T) {
	// p34392's core 18 has an 800-FF scan chain: once the TAM is wide
	// enough the SOC InTest time is pinned near 680*801 cc and more
	// wires stop helping — the flattening visible in the paper's
	// Table 2 for Wmax >= 40.
	s := soc.MustLoadBenchmark("p34392")
	a48, _, err := optimize(s, 48)
	if err != nil {
		t.Fatal(err)
	}
	a64, _, err := optimize(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	floor := int64(680 * 801)
	if a64.InTestTime() < floor {
		t.Errorf("W=64 InTest %d below the core-18 bound %d", a64.InTestTime(), floor)
	}
	ratio := float64(a48.InTestTime()) / float64(a64.InTestTime())
	if ratio > 1.10 {
		t.Errorf("no flattening: W=48 %d vs W=64 %d", a48.InTestTime(), a64.InTestTime())
	}
}

func TestLowerBound(t *testing.T) {
	for _, name := range soc.Benchmarks() {
		s := soc.MustLoadBenchmark(name)
		for _, w := range []int{8, 16, 32, 64} {
			lb, err := LowerBound(s, w)
			if err != nil {
				t.Fatal(err)
			}
			arch, _, err := optimize(s, w)
			if err != nil {
				t.Fatal(err)
			}
			if arch.InTestTime() < lb {
				t.Errorf("%s W=%d: optimized time %d below lower bound %d",
					name, w, arch.InTestTime(), lb)
			}
			// The heuristic should land within 2.5x of the bound on
			// these benchmarks (it is typically much closer).
			if float64(arch.InTestTime()) > 2.5*float64(lb) {
				t.Errorf("%s W=%d: optimized time %d far above lower bound %d",
					name, w, arch.InTestTime(), lb)
			}
		}
	}
}

func TestLowerBoundMonotonic(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	prev := int64(0)
	for _, w := range []int{64, 32, 16, 8} {
		lb, err := LowerBound(s, w)
		if err != nil {
			t.Fatal(err)
		}
		if lb < prev {
			t.Errorf("lower bound decreased when narrowing the TAM: %d -> %d at W=%d", prev, lb, w)
		}
		prev = lb
	}
}

func TestOptimizeThenScheduleSI(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	groups := []*sischedule.Group{
		{Name: "g1", Cores: s.SortedIDs(), Patterns: 1000},
		{Name: "g2", Cores: []int{1, 2, 3}, Patterns: 500},
	}
	res, err := core.Solve(context.Background(), core.Problem{SOC: s, Wmax: 16, Groups: groups, Model: sischedule.DefaultModel()},
		core.Options{Method: core.MethodBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Architecture.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TimeSI <= 0 {
		t.Error("SI time not accounted")
	}
	if res.Breakdown.TimeSOC != res.Breakdown.TimeIn+res.Breakdown.TimeSI {
		t.Errorf("breakdown inconsistent: %+v", res.Breakdown)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Error(err)
	}
	// The baseline optimizes InTest only, so its InTest time matches a
	// run without SI groups.
	arch, _, err := optimize(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TimeIn != arch.InTestTime() {
		t.Errorf("baseline InTest %d != plain optimize %d", res.Breakdown.TimeIn, arch.InTestTime())
	}
}
