package sitam

// Benchmarks regenerating the paper's evaluation artifacts, one per
// table and figure, plus micro-benchmarks of every subsystem and the
// ablation benches DESIGN.md calls out.
//
// The table benches run a reduced sweep per iteration (smaller N_r and
// fewer widths than the paper) so `go test -bench=.` stays laptop-
// friendly; the full-scale sweep is the cmd/socbench binary, whose
// output is recorded in EXPERIMENTS.md. Shape metrics (the paper's
// ΔT_[8] and ΔT_g, in percent) are attached to the bench results via
// b.ReportMetric.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sitam/internal/compaction"
	"sitam/internal/core"
	"sitam/internal/experiments"
	"sitam/internal/hypergraph"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/topology"
	"sitam/internal/wrapper"
)

// benchTable runs a reduced Tables 2/3 sweep for one SOC.
func benchTable(b *testing.B, name string) {
	s := soc.MustLoadBenchmark(name)
	cfg := experiments.TableConfig{
		Widths:    []int{8, 32, 64},
		Nr:        []int{5000},
		Groupings: []int{1, 4},
		Seed:      1,
	}
	var lastD8, lastDg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.RunTableCtx(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := tbl.Cells[len(tbl.Cells)-1]
		lastD8, lastDg = last.DeltaT8(), last.DeltaTg()
	}
	b.ReportMetric(lastD8, "ΔT8_W64_%")
	b.ReportMetric(lastDg, "ΔTg_W64_%")
}

// BenchmarkTable2P34392 regenerates (at reduced scale) the paper's
// Table 2: p34392 overall test time, baseline vs SI-aware.
func BenchmarkTable2P34392(b *testing.B) { benchTable(b, "p34392") }

// BenchmarkTable3P93791 regenerates (at reduced scale) the paper's
// Table 3: p93791 overall test time, baseline vs SI-aware.
func BenchmarkTable3P93791(b *testing.B) { benchTable(b, "p93791") }

// BenchmarkFig3Schedule exercises Example 1 / Fig. 3: computing the SI
// test times and the Algorithm 1 schedule for the five-core SOC under
// the two TAM designs of the figure.
func BenchmarkFig3Schedule(b *testing.B) {
	s := &soc.SOC{Name: "fig3", BusWidth: 8}
	for id := 1; id <= 5; id++ {
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: 2, Outputs: 8, ScanChains: []int{5}, Patterns: 10,
		})
	}
	tt, err := wrapper.NewTimeTable(s, 8)
	if err != nil {
		b.Fatal(err)
	}
	groups := []*sischedule.Group{
		{Name: "SI1", Cores: []int{1, 2, 3, 4, 5}, Patterns: 10},
		{Name: "SI2", Cores: []int{1, 4, 5}, Patterns: 20},
		{Name: "SI3", Cores: []int{2, 3}, Patterns: 5},
	}
	aA := tam.New(s, tt)
	aA.AddRail([]int{1, 2}, 2)
	aA.AddRail([]int{3, 4}, 2)
	aA.AddRail([]int{5}, 2)
	aB := tam.New(s, tt)
	aB.AddRail([]int{1, 4, 5}, 2)
	aB.AddRail([]int{2, 3}, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range []*tam.Architecture{aA, aB} {
			if _, err := sischedule.ScheduleSITest(a, groups, sischedule.Model{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2Partition exercises the Fig. 2 workload: partitioning
// the care-core hypergraph of a real pattern set into 4 parts.
func BenchmarkFig2Partition(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	weights := make([]int64, s.NumCores())
	idx := map[int]int{}
	for i, c := range s.Cores() {
		weights[i] = int64(c.WOC())
		idx[c.ID] = i
	}
	h := hypergraph.New(weights)
	for _, p := range patterns {
		cc := p.CareCores(sp)
		pins := make([]int, len(cc))
		for j, id := range cc {
			pins[j] = idx[id]
		}
		if err := h.AddEdge(pins, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hypergraph.PartitionK(h, 4, hypergraph.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMotivationMASet regenerates the Section 2 estimate
// constructively: the 640-net topology and its 6N-pattern MA test set.
func BenchmarkMotivationMASet(b *testing.B) {
	s := &soc.SOC{Name: "bus10", BusWidth: 32}
	for id := 1; id <= 10; id++ {
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: 100, Outputs: 100, ScanChains: []int{50}, Patterns: 10,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo, err := topology.Random(s, topology.RandomConfig{FanOut: 2, Width: 32, BusFraction: 0.5}, 1)
		if err != nil {
			b.Fatal(err)
		}
		ma, err := topology.MAPatterns(topo, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(ma) != 3840 {
			b.Fatalf("MA set = %d, want 3840", len(ma))
		}
	}
}

// --- Subsystem micro-benchmarks ---

func BenchmarkPatternGeneration(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateCorpus draws p93791 patterns straight into a
// corpus, as every tamopt run, sitamd job and sweep block does.
// Against BenchmarkPatternGeneration it adds the packing and saves
// the Pattern structs.
func BenchmarkGenerateCorpus(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	sp := sifault.NewSpace(s)
	for _, nr := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("Nr=%d", nr), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := compaction.GenerateCorpus(context.Background(), sp, sifault.GenConfig{N: nr, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewTimeTable builds p93791's InTest table up to width 64,
// as every engine of a p93791 solve at W=64 does.
func BenchmarkNewTimeTable(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wrapper.NewTimeTable(s, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyCompaction10k(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compaction.Greedy(sp, patterns)
	}
}

// BenchmarkBuildGroups times one one-shot grouping: p93791, N_r=10000,
// g=8, on the default GOMAXPROCS compaction workers. That is the
// set-up grouping of e2ebench's ils-search workload and a typical
// sitamd job's.
func BenchmarkBuildGroups(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildGroupsCtx(ctx, s, patterns, core.GroupingOptions{Parts: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrapperCombine(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	cores := s.Cores()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cores[i%len(cores)]
		if _, err := wrapper.Combine(c, 1+i%32); err != nil {
			b.Fatal(err)
		}
	}
}

// solveSerial is core.Solve on a serial, uncached engine, the
// configuration the single-run benchmarks measure.
func solveSerial(s *soc.SOC, wmax int, groups []*sischedule.Group, m core.Method) (*core.Result, error) {
	return core.Solve(context.Background(), core.Problem{SOC: s, Wmax: wmax, Groups: groups, Model: sischedule.DefaultModel()},
		core.Options{Method: m, ParallelConfig: core.ParallelConfig{Workers: 1, CacheSize: -1}})
}

func BenchmarkTRArchitectP93791W32(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveSerial(s, 32, nil, core.MethodBaseline); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTAMOptimizationP93791W32(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveSerial(s, 32, gr.Groups, core.MethodSI); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleSITest(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base, err := solveSerial(s, 32, nil, core.MethodBaseline)
	if err != nil {
		b.Fatal(err)
	}
	arch := base.Architecture
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sischedule.ScheduleSITest(arch, gr.Groups, sischedule.DefaultModel()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices from DESIGN.md) ---

// Benchmark_AblationCover compares the paper's greedy clique-cover
// heuristic with the DSATUR reference on the same pattern set; the
// reported metric is the compacted pattern count.
func Benchmark_AblationCover(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 1500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	b.Run("greedy", func(b *testing.B) {
		var compacted int
		for i := 0; i < b.N; i++ {
			_, stats := compaction.Greedy(sp, patterns)
			compacted = stats.Compacted
		}
		b.ReportMetric(float64(compacted), "patterns")
	})
	b.Run("dsatur", func(b *testing.B) {
		var compacted int
		for i := 0; i < b.N; i++ {
			_, stats, err := compaction.DSATUR(patterns)
			if err != nil {
				b.Fatal(err)
			}
			compacted = stats.Compacted
		}
		b.ReportMetric(float64(compacted), "patterns")
	})
}

// Benchmark_AblationGrouping sweeps the grouping count g, reporting the
// resulting T_soc at W=32 — the trade-off behind the T_g_i columns.
func Benchmark_AblationGrouping(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "g1", 2: "g2", 4: "g4", 8: "g8"}[g], func(b *testing.B) {
			var tsoc int64
			for i := 0; i < b.N; i++ {
				gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: g, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := solveSerial(s, 32, gr.Groups, core.MethodSI)
				if err != nil {
					b.Fatal(err)
				}
				tsoc = res.Breakdown.TimeSOC
			}
			b.ReportMetric(float64(tsoc), "T_soc_cc")
		})
	}
}

// Benchmark_AblationILS measures what iterated local search buys over
// the paper's greedy fixed point (extension; see internal/core/ils.go).
func Benchmark_AblationILS(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, kicks := range []int{0, 10} {
		name := "greedy"
		if kicks > 0 {
			name = "ils10"
		}
		b.Run(name, func(b *testing.B) {
			var obj int64
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(s, 32, &core.SIEvaluator{Groups: gr.Groups, Model: sischedule.DefaultModel()})
				if err != nil {
					b.Fatal(err)
				}
				_, obj, _, err = eng.OptimizeILSCtx(context.Background(), kicks, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(obj), "T_soc_cc")
		})
	}
}

// --- Evaluation cache benches ---

// benchParallelEval compares the optimization without and with the
// evaluation cache; both produce byte-identical architectures (see the
// differential tests), so the comparison isolates the cache's effect.
// The cache hit rate of the last run is attached as a metric. The
// names keep "Parallel" because sitperf's parallel suite and
// BENCH_parallel.json select them by it.
func benchParallelEval(b *testing.B, name string, wmax int) {
	s := soc.MustLoadBenchmark(name)
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := sischedule.DefaultModel()
	for _, bc := range []struct {
		name string
		cfg  core.ParallelConfig
	}{
		{"serial_nocache", core.ParallelConfig{Workers: 1, CacheSize: -1}},
		{"serial_cache", core.ParallelConfig{Workers: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				res, err := core.TAMOptimizationWith(context.Background(), s, wmax, gr.Groups, m, bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				hitRate = res.Cache.HitRate()
			}
			if hitRate > 0 {
				b.ReportMetric(100*hitRate, "cache_hit_%")
			}
		})
	}
}

func Benchmark_ParallelEvalP34392W64(b *testing.B) { benchParallelEval(b, "p34392", 64) }
func Benchmark_ParallelEvalP93791W64(b *testing.B) { benchParallelEval(b, "p93791", 64) }

// Benchmark_CacheColdVsWarm isolates the memoization win: cold resets
// the cache before every optimization; warm reuses the populated cache
// across runs, so repeat optimizations of the same workload answer
// almost every evaluation from the cache.
func Benchmark_CacheColdVsWarm(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cache := core.NewCachedEvaluator(&core.SIEvaluator{Groups: gr.Groups, Model: sischedule.DefaultModel()}, 0)
	eng, err := core.NewEngine(s, 64, cache)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache.Reset()
			if _, _, _, err := eng.OptimizeCtx(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*cache.Stats().HitRate(), "cache_hit_%")
	})
	b.Run("warm", func(b *testing.B) {
		cache.Reset()
		if _, _, _, err := eng.OptimizeCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
		cache.ResetStats() // keep entries, count only the timed runs below
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := eng.OptimizeCtx(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*cache.Stats().HitRate(), "cache_hit_%")
	})
}

// Benchmark_CachePersistentRestart measures the restart win of the
// persistent cache file: a first "process" runs cold with -cache-file
// semantics (populating the journal), then every timed iteration of
// the warm sub-bench simulates a restarted process — reopen the file,
// seed a brand-new in-memory cache from it, re-run the same sweep.
// Seeded entries count as Loads, not hits, so the reported hit rate is
// earned entirely by the timed run; the acceptance bar is >= 90% on
// the first repeated sweep after restart.
func Benchmark_CachePersistentRestart(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := sischedule.DefaultModel()
	path := filepath.Join(b.TempDir(), "evals.sitcache")

	// First process: one cold run populates the cache file.
	cf, err := core.OpenCacheFile(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.TAMOptimizationWith(context.Background(), s, 64, gr.Groups, m,
		core.ParallelConfig{Workers: 1, Persist: cf}); err != nil {
		b.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		var hitRate float64
		for i := 0; i < b.N; i++ {
			res, err := core.TAMOptimizationWith(context.Background(), s, 64, gr.Groups, m,
				core.ParallelConfig{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			hitRate = res.Cache.HitRate()
		}
		b.ReportMetric(100*hitRate, "cache_hit_%")
	})
	b.Run("persistent_warm", func(b *testing.B) {
		var hitRate float64
		for i := 0; i < b.N; i++ {
			cf, err := core.OpenCacheFile(path)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.TAMOptimizationWith(context.Background(), s, 64, gr.Groups, m,
				core.ParallelConfig{Workers: 1, Persist: cf})
			if err != nil {
				b.Fatal(err)
			}
			if err := cf.Close(); err != nil {
				b.Fatal(err)
			}
			hitRate = res.Cache.HitRate()
		}
		b.ReportMetric(100*hitRate, "cache_hit_%")
		if hitRate < 0.9 {
			b.Errorf("persistent warm hit rate %.1f%% < 90%% — restart seeding regressed", 100*hitRate)
		}
	})
}

// --- Incremental delta evaluation benches ---

// Benchmark_IncrementalEval isolates the delta-evaluation win: a full
// serial p93791 W=64 optimization (no memoization cache, workers=1)
// under the from-scratch SIEvaluator versus the incremental evaluator
// (dirty-rail TimeIn refresh + per-rail SI composition memo). The
// differential suite pins both to byte-identical results, so the
// comparison is pure wall-clock.
func Benchmark_IncrementalEval(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := sischedule.DefaultModel()
	run := func(b *testing.B, eval core.Evaluator) {
		eng, err := core.NewEngine(s, 64, eval)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := eng.OptimizeCtx(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("scratch", func(b *testing.B) {
		run(b, &core.SIEvaluator{Groups: gr.Groups, Model: m})
	})
	b.Run("incremental", func(b *testing.B) {
		run(b, core.NewIncrementalSIEvaluator(gr.Groups, m, nil))
	})
}

// Benchmark_ColdCacheGuard guards against the cold-run cache
// regression BENCH_parallel.json recorded for the string-keyed cache:
// with the incremental hash keying, a cold cached optimization must
// not be meaningfully slower than an uncached one. Both variants are
// timed inside one benchmark run so they see the same machine state;
// the assertion allows a generous noise margin (the steady-state
// numbers live in BENCH_incremental.json).
func Benchmark_ColdCacheGuard(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := sischedule.DefaultModel()
	time1 := func(cfg core.ParallelConfig) time.Duration {
		t0 := time.Now()
		if _, err := core.TAMOptimizationWith(context.Background(), s, 64, gr.Groups, m, cfg); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	// Warm the planner memo and allocator so both variants run steady.
	time1(core.ParallelConfig{Workers: 1, CacheSize: -1})
	var uncached, cached time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uncached += time1(core.ParallelConfig{Workers: 1, CacheSize: -1})
		cached += time1(core.ParallelConfig{Workers: 1}) // fresh cache: cold run
	}
	b.StopTimer()
	b.ReportMetric(float64(uncached.Nanoseconds())/float64(b.N), "nocache_ns")
	b.ReportMetric(float64(cached.Nanoseconds())/float64(b.N), "coldcache_ns")
	if cached > uncached*3/2 {
		b.Errorf("cold cached run %v is >1.5x the uncached run %v — hash-keyed cache regressed", cached, uncached)
	}
}

// Benchmark_AblationSchedulingOverlap compares Algorithm 1's
// concurrent schedule against serial group application.
func Benchmark_AblationSchedulingOverlap(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base, err := solveSerial(s, 32, nil, core.MethodBaseline)
	if err != nil {
		b.Fatal(err)
	}
	arch := base.Architecture
	var overlap, serial int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := sischedule.ScheduleSITest(arch, gr.Groups, sischedule.DefaultModel())
		if err != nil {
			b.Fatal(err)
		}
		overlap = sched.TotalSI
		serial, err = sischedule.SerialTime(arch, gr.Groups, sischedule.DefaultModel())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(overlap), "T_si_overlap_cc")
	b.ReportMetric(float64(serial), "T_si_serial_cc")
}
