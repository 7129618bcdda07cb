// Motivation reproduces the Section 2 back-of-envelope analysis that
// motivates the paper, then verifies it constructively: it builds the
// 10-core, 32-bit-bus SOC as an actual interconnect topology,
// synthesizes the maximal-aggressor and reduced multiple-transition test
// sets, and compares the resulting serial external test time with the
// time after compaction and SI-aware TAM optimization.
package main

import (
	"context"
	"fmt"
	"log"

	"sitam"
	"sitam/internal/experiments"
)

func main() {
	log.SetFlags(0)

	// The analytical estimate, exactly as printed in the paper.
	fmt.Print(experiments.DefaultMotivation().Format())

	// Now the constructive version: a real topology with the same
	// shape. Ten cores, each sending 32-bit data to two other cores.
	s := &sitam.SOC{Name: "bus10", BusWidth: 32}
	for id := 1; id <= 10; id++ {
		s.CoreList = append(s.CoreList, &sitam.Core{
			ID: id, Inputs: 100, Outputs: 100, ScanChains: []int{50, 50}, Patterns: 100,
		})
	}
	topo, err := sitam.RandomTopology(s, sitam.TopologyConfig{FanOut: 2, Width: 32, BusFraction: 0.5}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nConstructed topology: %d victim nets\n", len(topo.Nets))

	ma, err := sitam.MAPatterns(topo, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MA test set: %d vector pairs (6N)\n", len(ma))

	mt, err := sitam.ReducedMTPatterns(topo, 3, 200000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduced MT test set (k=3): %d vector pairs (bound N*2^(2k+2) = %d)\n",
		len(mt), int64(len(topo.Nets))<<8)

	// What the paper's machinery does to that MA test set.
	groups, err := sitam.BuildGroups(s, ma, sitam.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n2-D compaction of the MA set: %d -> %d patterns (%.1fx)\n",
		groups.Stats.Original, groups.TotalCompacted(), groups.Stats.Ratio())

	res, err := sitam.Solve(context.Background(),
		sitam.Problem{SOC: s, Wmax: 32, Groups: groups.Groups, Model: sitam.DefaultModel()}, sitam.Options{})
	if err != nil {
		log.Fatal(err)
	}
	serial := int64(len(ma)) * int64(s.TotalTerminals())
	fmt.Printf("serial 1-bit ExTest of the raw MA set: %d cc\n", serial)
	fmt.Printf("after compaction + SI-aware TAM (W=32): T_si=%d cc (%.0fx faster)\n",
		res.Breakdown.TimeSI, float64(serial)/float64(res.Breakdown.TimeSI))
	fmt.Printf("total SOC test time including core-internal tests: %d cc\n", res.Breakdown.TimeSOC)
}
