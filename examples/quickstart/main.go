// Quickstart: load a benchmark SOC, generate SI test patterns, run the
// two-dimensional compaction, optimize the TAM architecture with the
// SI-aware algorithm, and print the resulting rails, schedule and time
// breakdown — the library's whole pipeline in one screen of code.
//
// It also prints a few generated patterns in the notation of the
// paper's Table 1 (on a small synthetic SOC so the rows fit a
// terminal).
package main

import (
	"context"
	"fmt"
	"log"

	"sitam"
)

func main() {
	log.SetFlags(0)

	// Table 1-style pattern listing on a small SOC.
	small := &sitam.SOC{
		Name:     "demo",
		BusWidth: 8,
		CoreList: []*sitam.Core{
			{ID: 1, Inputs: 2, Outputs: 6, Patterns: 1},
			{ID: 2, Inputs: 2, Outputs: 6, Patterns: 1},
			{ID: 3, Inputs: 2, Outputs: 6, Patterns: 1},
		},
	}
	pats, err := sitam.GeneratePatterns(small, sitam.GenConfig{N: 4, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	sp := sitam.NewPatternSpace(small)
	fmt.Println("SI test patterns (Table 1 notation: |core1|core2|core3‖bus|):")
	for i, p := range pats {
		fmt.Printf("  p%d: %s\n", i+1, p.Format(sp))
	}

	// Full pipeline on a benchmark SOC.
	s, err := sitam.LoadBenchmark("p93791")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", s.Summary())

	patterns, err := sitam.GeneratePatterns(s, sitam.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	groups, err := sitam.BuildGroups(s, patterns, sitam.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-D compaction: %d patterns -> %d in %d groups (%.1fx, %d residual)\n",
		groups.Stats.Original, groups.TotalCompacted(), len(groups.Groups),
		groups.Stats.Ratio(), groups.CutPatterns)

	const wmax = 32
	p := sitam.Problem{SOC: s, Wmax: wmax, Groups: groups.Groups, Model: sitam.DefaultModel()}
	res, err := sitam.Solve(context.Background(), p, sitam.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSI-aware TAM architecture (W_max=%d):\n%s", wmax, res.Architecture)
	fmt.Print(res.Schedule)
	fmt.Printf("T_in=%d  T_si=%d  T_soc=%d clock cycles\n",
		res.Breakdown.TimeIn, res.Breakdown.TimeSI, res.Breakdown.TimeSOC)

	base, err := sitam.Solve(context.Background(), p, sitam.Options{Method: sitam.MethodBaseline})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSI-oblivious baseline (TR-Architect): T_soc=%d — the SI-aware design saves %.1f%%\n",
		base.Breakdown.TimeSOC,
		100*float64(base.Breakdown.TimeSOC-res.Breakdown.TimeSOC)/float64(base.Breakdown.TimeSOC))
}
