package core

import (
	"context"
	"testing"

	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

func smallSOC() *soc.SOC {
	return &soc.SOC{
		Name:     "small",
		BusWidth: 8,
		CoreList: []*soc.Core{
			{ID: 1, Inputs: 8, Outputs: 8, ScanChains: []int{40, 40}, Patterns: 50},
			{ID: 2, Inputs: 4, Outputs: 12, ScanChains: []int{60}, Patterns: 30},
			{ID: 3, Inputs: 6, Outputs: 6, Patterns: 200},
			{ID: 4, Inputs: 10, Outputs: 10, ScanChains: []int{25, 25, 25}, Patterns: 80},
			{ID: 5, Inputs: 3, Outputs: 9, ScanChains: []int{15}, Patterns: 120},
		},
	}
}

func smallGroups() []*sischedule.Group {
	return []*sischedule.Group{
		{Name: "RES", Cores: []int{1, 2, 3, 4, 5}, Patterns: 300},
		{Name: "G1", Cores: []int{1, 2}, Patterns: 500},
		{Name: "G2", Cores: []int{3, 4, 5}, Patterns: 400},
	}
}

// optimize runs e to completion.
func optimize(e *Engine) (*tam.Architecture, int64, error) {
	a, obj, _, err := e.OptimizeCtx(context.Background())
	return a, obj, err
}

// optimizeILS runs e's ILS to completion.
func optimizeILS(e *Engine, kicks int, seed int64) (*tam.Architecture, int64, error) {
	a, obj, _, err := e.OptimizeILSCtx(context.Background(), kicks, 1, seed)
	return a, obj, err
}

// optimizeILSRestarts runs e's restarted ILS to completion.
func optimizeILSRestarts(e *Engine, kicks, restarts int, seed int64) (*tam.Architecture, int64, error) {
	a, obj, _, err := e.OptimizeILSCtx(context.Background(), kicks, restarts, seed)
	return a, obj, err
}

// parallelEngine is Solve's engine wiring around a caller-chosen
// objective, so the differential suites can pin the scratch evaluator
// against the incremental one under the same worker count and cache.
func parallelEngine(s *soc.SOC, wmax int, eval Evaluator, cfg ParallelConfig) (*Engine, error) {
	eng, err := NewEngine(s, wmax, eval)
	if err != nil {
		return nil, err
	}
	eng.configure(cfg, 0)
	return eng, nil
}

// solveSerial is Solve with MethodSI on a serial, uncached engine.
func solveSerial(s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model) (*Result, error) {
	return Solve(context.Background(), Problem{SOC: s, Wmax: wmax, Groups: groups, Model: m},
		Options{ParallelConfig: ParallelConfig{Workers: 1, CacheSize: -1}})
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(smallSOC(), 0, InTestEvaluator{}); err == nil {
		t.Error("accepted Wmax=0")
	}
	bad := smallSOC()
	bad.CoreList[0].Inputs = -1
	if _, err := NewEngine(bad, 8, InTestEvaluator{}); err == nil {
		t.Error("accepted invalid SOC")
	}
}

func TestOptimizeInTestProducesValidArchitecture(t *testing.T) {
	for _, wmax := range []int{2, 3, 5, 8, 16} {
		eng, err := NewEngine(smallSOC(), wmax, InTestEvaluator{})
		if err != nil {
			t.Fatal(err)
		}
		arch, obj, err := optimize(eng)
		if err != nil {
			t.Fatalf("Wmax=%d: %v", wmax, err)
		}
		if err := arch.Validate(); err != nil {
			t.Fatalf("Wmax=%d: %v", wmax, err)
		}
		if arch.TotalWidth() > wmax {
			t.Errorf("Wmax=%d: total width %d exceeds budget", wmax, arch.TotalWidth())
		}
		if obj != arch.InTestTime() {
			t.Errorf("Wmax=%d: objective %d != InTestTime %d", wmax, obj, arch.InTestTime())
		}
	}
}

func TestOptimizeFewerWiresThanCores(t *testing.T) {
	// Wmax=2 < 5 cores: start solution must merge down to 2 rails of
	// width 1.
	eng, err := NewEngine(smallSOC(), 2, InTestEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	arch, _, err := optimize(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Validate(); err != nil {
		t.Fatal(err)
	}
	if arch.TotalWidth() > 2 {
		t.Errorf("total width %d > 2", arch.TotalWidth())
	}
}

func TestOptimizeMonotonicOverWidth(t *testing.T) {
	// More TAM wires never hurt the optimized InTest time by much; the
	// heuristic is not guaranteed monotonic, but on this small SOC a
	// doubling of width must strictly help.
	times := map[int]int64{}
	for _, wmax := range []int{2, 4, 8, 16} {
		eng, err := NewEngine(smallSOC(), wmax, InTestEvaluator{})
		if err != nil {
			t.Fatal(err)
		}
		_, obj, err := optimize(eng)
		if err != nil {
			t.Fatal(err)
		}
		times[wmax] = obj
	}
	if times[4] >= times[2] || times[8] >= times[4] || times[16] >= times[8] {
		t.Errorf("optimized times not improving with width: %v", times)
	}
}

func TestOptimizeSIAwareValid(t *testing.T) {
	groups := smallGroups()
	for _, wmax := range []int{3, 6, 12} {
		eng, err := NewEngine(smallSOC(), wmax, &SIEvaluator{Groups: groups, Model: sischedule.DefaultModel()})
		if err != nil {
			t.Fatal(err)
		}
		arch, obj, err := optimize(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := arch.Validate(); err != nil {
			t.Fatal(err)
		}
		if arch.TotalWidth() > wmax {
			t.Errorf("Wmax=%d: width %d over budget", wmax, arch.TotalWidth())
		}
		bd, sched, err := EvaluateBreakdown(arch, groups, sischedule.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		if bd.TimeSOC != obj {
			t.Errorf("Wmax=%d: objective %d != breakdown %d", wmax, obj, bd.TimeSOC)
		}
		if err := sched.Validate(); err != nil {
			t.Error(err)
		}
		if bd.TimeSOC != bd.TimeIn+bd.TimeSI {
			t.Errorf("breakdown inconsistent: %+v", bd)
		}
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	groups := smallGroups()
	run := func() (int64, string) {
		eng, err := NewEngine(smallSOC(), 6, &SIEvaluator{Groups: groups, Model: sischedule.DefaultModel()})
		if err != nil {
			t.Fatal(err)
		}
		arch, obj, err := optimize(eng)
		if err != nil {
			t.Fatal(err)
		}
		return obj, arch.String()
	}
	o1, a1 := run()
	o2, a2 := run()
	if o1 != o2 || a1 != a2 {
		t.Errorf("optimization not deterministic:\n%s\nvs\n%s", a1, a2)
	}
}

func TestSIAwareBeatsBaselineOnSIHeavyWorkload(t *testing.T) {
	// With SI tests dominating, the SI-aware objective must not be
	// worse than evaluating the InTest-optimized architecture.
	groups := []*sischedule.Group{
		{Name: "RES", Cores: []int{1, 2, 3, 4, 5}, Patterns: 5000},
		{Name: "G1", Cores: []int{1, 2}, Patterns: 8000},
		{Name: "G2", Cores: []int{3, 4, 5}, Patterns: 7000},
	}
	m := sischedule.DefaultModel()
	s := smallSOC()

	engBase, err := NewEngine(s, 8, InTestEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	baseArch, _, err := optimize(engBase)
	if err != nil {
		t.Fatal(err)
	}
	baseBD, _, err := EvaluateBreakdown(baseArch, groups, m)
	if err != nil {
		t.Fatal(err)
	}

	engSI, err := NewEngine(s, 8, &SIEvaluator{Groups: groups, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	_, siObj, err := optimize(engSI)
	if err != nil {
		t.Fatal(err)
	}
	if siObj > baseBD.TimeSOC {
		t.Errorf("SI-aware %d worse than SI-oblivious %d on SI-heavy workload", siObj, baseBD.TimeSOC)
	}
}

func TestSingleCoreSOC(t *testing.T) {
	s := &soc.SOC{
		Name:     "one",
		BusWidth: 4,
		CoreList: []*soc.Core{{ID: 1, Inputs: 4, Outputs: 4, ScanChains: []int{10}, Patterns: 20}},
	}
	eng, err := NewEngine(s, 4, InTestEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	arch, _, err := optimize(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(arch.Rails) != 1 {
		t.Errorf("single core spread over %d rails", len(arch.Rails))
	}
}

func TestWmaxEqualsCoreCount(t *testing.T) {
	eng, err := NewEngine(smallSOC(), 5, InTestEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	arch, _, err := optimize(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Validate(); err != nil {
		t.Fatal(err)
	}
	if arch.TotalWidth() > 5 {
		t.Errorf("width %d > 5", arch.TotalWidth())
	}
}

func TestFreeWiresGoToBottleneck(t *testing.T) {
	// One heavy core and one trivial core: with plenty of wires, the
	// heavy core's rail must end up wider.
	s := &soc.SOC{Name: "skew", BusWidth: 4, CoreList: []*soc.Core{
		{ID: 1, Inputs: 8, Outputs: 8, ScanChains: []int{100, 100, 100, 100}, Patterns: 200},
		{ID: 2, Inputs: 2, Outputs: 2, Patterns: 5},
	}}
	eng, err := NewEngine(s, 8, InTestEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	arch, _, err := optimize(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Validate(); err != nil {
		t.Fatal(err)
	}
	heavy := arch.RailOf(1)
	light := arch.RailOf(2)
	if heavy != light && arch.Rails[heavy].Width <= arch.Rails[light].Width {
		t.Errorf("heavy core rail width %d <= light core rail width %d\n%s",
			arch.Rails[heavy].Width, arch.Rails[light].Width, arch)
	}
}

func TestBottleneckRails(t *testing.T) {
	eng, err := NewEngine(smallSOC(), 5, InTestEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	arch, _, err := optimize(eng)
	if err != nil {
		t.Fatal(err)
	}
	bn := bottleneckRails(arch)
	if len(bn) == 0 {
		t.Fatal("no bottleneck rails found")
	}
	maxIn := arch.InTestTime()
	foundMax := false
	for _, i := range bn {
		if arch.Rails[i].TimeIn == maxIn {
			foundMax = true
		}
	}
	if !foundMax {
		t.Error("bottleneck set omits the max-InTest rail")
	}
}

func TestTestBusEvaluatorSerializesSI(t *testing.T) {
	s := smallSOC()
	groups := smallGroups()
	m := sischedule.DefaultModel()

	engRail, err := NewEngine(s, 8, &SIEvaluator{Groups: groups, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	_, railObj, err := optimize(engRail)
	if err != nil {
		t.Fatal(err)
	}
	engBus, err := NewEngine(s, 8, &TestBusEvaluator{Groups: groups, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	busArch, busObj, err := optimize(engBus)
	if err != nil {
		t.Fatal(err)
	}
	if err := busArch.Validate(); err != nil {
		t.Fatal(err)
	}
	// Serial ExTest can never beat the overlapped schedule on the same
	// problem: the TestRail objective is a relaxation.
	if busObj < railObj {
		t.Errorf("Test Bus objective %d below TestRail %d", busObj, railObj)
	}
	// And the bus objective must equal T_in + serial SI on its arch.
	serial, err := sischedule.SerialTime(busArch, groups, m)
	if err != nil {
		t.Fatal(err)
	}
	if busObj != busArch.InTestTime()+serial {
		t.Errorf("bus objective %d != T_in %d + serial %d", busObj, busArch.InTestTime(), serial)
	}
}

func TestEvaluateBreakdownMatchesGenerator(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveSerial(s, 16, gr.Groups, sischedule.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Architecture.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TimeSOC != res.Breakdown.TimeIn+res.Breakdown.TimeSI {
		t.Errorf("breakdown inconsistent: %+v", res.Breakdown)
	}
	if res.Schedule.TotalSI != res.Breakdown.TimeSI {
		t.Errorf("schedule T_si %d != breakdown %d", res.Schedule.TotalSI, res.Breakdown.TimeSI)
	}
}
