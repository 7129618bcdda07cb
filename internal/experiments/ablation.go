package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"sitam/internal/compaction"
	"sitam/internal/core"
	"sitam/internal/exact"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// RunAblations exercises the design choices DESIGN.md calls out and
// writes a report to w:
//
//  1. greedy vs DSATUR clique cover (compacted pattern count and the
//     greedy heuristic's gap on a medium instance);
//  2. victim-core quiescing probability vs compaction ratio and T_soc;
//  3. bus usage probability vs compaction (the shared-bus conflict
//     rule's effect);
//  4. hypergraph balance tolerance vs residual (cut) patterns;
//  5. Algorithm 1's concurrent SI scheduling vs naive serial
//     application of the groups.
//
// The context is checked between sections: a cancelled or expired
// context stops the study after the section in flight, reporting the
// sections already written plus a trailing note, and returns the
// context's error so callers can distinguish a truncated report.
func RunAblations(ctx context.Context, w io.Writer, seed int64, quick bool) error {
	s, err := soc.LoadBenchmark("p34392")
	if err != nil {
		return err
	}
	section := func(name string) error {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(w, "\n[stopped before section %s: %v]\n", name, err)
			return err
		}
		return nil
	}
	nr := 20000
	sample := 3000
	if quick {
		nr = 5000
		sample = 800
	}
	wmax := 32
	// A section in flight runs to completion: cancellation is checked
	// between sections, so no section reports a partial number.
	sectionCtx := context.WithoutCancel(ctx)
	solve := func(groups []*sischedule.Group) (*core.Result, error) {
		return core.Solve(sectionCtx, core.Problem{SOC: s, Wmax: wmax, Groups: groups, Model: sischedule.DefaultModel()},
			core.Options{ParallelConfig: core.ParallelConfig{Workers: 1, CacheSize: -1}})
	}

	fmt.Fprintf(w, "Ablation study on %s (Nr=%d, Wmax=%d, seed=%d)\n", s.Name, nr, wmax, seed)

	// --- 1. Greedy vs DSATUR cover.
	if err := section("1"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[1] vertical compaction: greedy vs DSATUR (first %d patterns)\n", sample)
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: sample, Seed: seed})
	if err != nil {
		return err
	}
	sp := sifault.NewSpace(s)
	_, gs := compaction.Greedy(sp, patterns)
	_, ds, err := compaction.DSATUR(patterns)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "    greedy: %d -> %d (ratio %.2fx)\n", gs.Original, gs.Compacted, gs.Ratio())
	fmt.Fprintf(w, "    DSATUR: %d -> %d (ratio %.2fx); greedy gap %.1f%%\n",
		ds.Original, ds.Compacted, ds.Ratio(),
		100*float64(gs.Compacted-ds.Compacted)/float64(ds.Compacted))

	// --- 2. Quiescing probability sweep.
	if err := section("2"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[2] victim-core quiescing probability vs compaction and T_soc (g=4, W=%d)\n", wmax)
	for _, q := range []float64{-1, 0.25, 0.5, 1.0} {
		pats, err := sifault.Generate(s, sifault.GenConfig{N: nr, Seed: seed, QuiesceProb: q})
		if err != nil {
			return err
		}
		gr, err := core.BuildGroupsCtx(sectionCtx, s, pats, core.GroupingOptions{Parts: 4, Seed: seed})
		if err != nil {
			return err
		}
		res, err := solve(gr.Groups)
		if err != nil {
			return err
		}
		label := q
		if q < 0 {
			label = 0
		}
		fmt.Fprintf(w, "    q=%.2f: %6d -> %5d patterns (%.1fx), T_soc=%d (T_si=%d)\n",
			label, gr.Stats.Original, gr.TotalCompacted(), gr.Stats.Ratio(),
			res.Breakdown.TimeSOC, res.Breakdown.TimeSI)
	}

	// --- 3. Bus usage probability sweep.
	if err := section("3"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[3] shared-bus usage probability vs compaction (g=1)\n")
	for _, bp := range []float64{-1, 0.25, 0.5, 0.75} {
		pats, err := sifault.Generate(s, sifault.GenConfig{N: nr, Seed: seed, BusProb: bp})
		if err != nil {
			return err
		}
		gr, err := core.BuildGroupsCtx(sectionCtx, s, pats, core.GroupingOptions{Parts: 1, Seed: seed})
		if err != nil {
			return err
		}
		label := bp
		if bp < 0 {
			label = 0
		}
		fmt.Fprintf(w, "    busProb=%.2f: %6d -> %5d patterns (%.1fx)\n",
			label, gr.Stats.Original, gr.TotalCompacted(), gr.Stats.Ratio())
	}

	// --- 4. Balance tolerance sweep.
	if err := section("4"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[4] hypergraph balance tolerance vs residual patterns (g=4)\n")
	patterns, err = sifault.Generate(s, sifault.GenConfig{N: nr, Seed: seed})
	if err != nil {
		return err
	}
	for _, tol := range []float64{0.02, 0.10, 0.30, 0.60} {
		gr, err := core.BuildGroupsCtx(sectionCtx, s, patterns, core.GroupingOptions{Parts: 4, Seed: seed, Tolerance: tol})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "    tol=%.2f: residual %6d of %d patterns (%.1f%%), %d compacted\n",
			tol, gr.CutPatterns, gr.Stats.Original,
			100*float64(gr.CutPatterns)/float64(gr.Stats.Original), gr.TotalCompacted())
	}

	// --- 5. Concurrent vs serial SI scheduling.
	if err := section("5"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[5] Algorithm 1 concurrency vs serial SI application (g=8, W=%d)\n", wmax)
	gr, err := core.BuildGroupsCtx(sectionCtx, s, patterns, core.GroupingOptions{Parts: 8, Seed: seed})
	if err != nil {
		return err
	}
	res, err := solve(gr.Groups)
	if err != nil {
		return err
	}
	serial, err := sischedule.SerialTime(res.Architecture, gr.Groups, sischedule.DefaultModel())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "    Algorithm 1: T_si=%d; serial: T_si=%d (overlap saves %.1f%%)\n",
		res.Breakdown.TimeSI, serial,
		100*float64(serial-res.Breakdown.TimeSI)/float64(serial))

	// --- 6. TestRail vs multiplexed Test Bus.
	if err := section("6"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[6] TestRail vs Test Bus architecture style (g=8, W=%d)\n", wmax)
	engBus, err := core.NewEngine(s, wmax, &core.TestBusEvaluator{Groups: gr.Groups, Model: sischedule.DefaultModel()})
	if err != nil {
		return err
	}
	_, busObj, _, err := engBus.OptimizeCtx(sectionCtx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "    TestRail (parallel ExTest): T_soc=%d; Test Bus (serial ExTest): T_soc=%d (+%.1f%%)\n",
		res.Breakdown.TimeSOC, busObj,
		100*float64(busObj-res.Breakdown.TimeSOC)/float64(res.Breakdown.TimeSOC))

	// --- 7. Heuristic optimality gap on tiny instances.
	if err := section("7"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[7] Algorithm 2 vs exhaustive optimum (tiny random SOCs)\n")
	instances := 12
	if quick {
		instances = 5
	}
	worst, sum := 0.0, 0.0
	for i := 0; i < instances; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		ts := randomTinySOC(rng)
		gset := randomTinyGroups(rng, ts)
		gap, err := exact.Gap(ts, 2+rng.Intn(4), gset, sischedule.DefaultModel())
		if err != nil {
			return err
		}
		sum += gap
		if gap > worst {
			worst = gap
		}
	}
	fmt.Fprintf(w, "    %d instances: mean gap %.2f%%, worst gap %.2f%%\n",
		instances, 100*sum/float64(instances), 100*worst)

	// --- 8. Algorithm 1 vs exact branch-and-bound schedule.
	if err := section("8"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[8] Algorithm 1 vs optimal SI schedule (same g=8 groups, W=%d)\n", wmax)
	optSI, nodes, _, err := sischedule.ExactSchedule(sectionCtx, res.Architecture, gr.Groups, sischedule.DefaultModel(), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "    Algorithm 1: T_si=%d; optimal: T_si=%d (gap %.2f%%, %d B&B nodes)\n",
		res.Breakdown.TimeSI, optSI,
		100*float64(res.Breakdown.TimeSI-optSI)/float64(optSI), nodes)
	return nil
}

func randomTinySOC(rng *rand.Rand) *soc.SOC {
	s := &soc.SOC{Name: "tiny", BusWidth: 8}
	n := 3 + rng.Intn(3)
	for id := 1; id <= n; id++ {
		c := &soc.Core{
			ID:       id,
			Inputs:   1 + rng.Intn(10),
			Outputs:  1 + rng.Intn(10),
			Patterns: 1 + rng.Intn(60),
		}
		for j := rng.Intn(3); j > 0; j-- {
			c.ScanChains = append(c.ScanChains, 1+rng.Intn(40))
		}
		s.CoreList = append(s.CoreList, c)
	}
	return s
}

func randomTinyGroups(rng *rand.Rand, s *soc.SOC) []*sischedule.Group {
	var groups []*sischedule.Group
	for gi := 1 + rng.Intn(3); gi > 0; gi-- {
		var cores []int
		for _, c := range s.Cores() {
			if rng.Intn(2) == 0 {
				cores = append(cores, c.ID)
			}
		}
		if len(cores) == 0 {
			cores = []int{s.Cores()[0].ID}
		}
		groups = append(groups, &sischedule.Group{Name: "g", Cores: cores, Patterns: int64(1 + rng.Intn(200))})
	}
	return groups
}
