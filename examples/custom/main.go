// Custom shows the library on a user-defined SOC instead of the
// embedded benchmarks: the SOC is described in the ITC'02-style .soc
// text format, parsed, and swept over TAM widths comparing the
// SI-oblivious baseline against the SI-aware optimizer — the workflow a
// system integrator would follow for their own design.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"sitam"
)

const mySOC = `
SocName camera-isp
BusWidth 16
TotalModules 7

Module 0
  Name top
  Inputs 64
  Outputs 64
  Bidirs 0

Module 1
  Name sensor-if
  Inputs 40
  Outputs 36
  Bidirs 0
  ScanChains 4 : 220 215 210 205
  Patterns 310

Module 2
  Name demosaic
  Inputs 48
  Outputs 48
  Bidirs 0
  ScanChains 8 : 150 150 148 148 146 146 144 144
  Patterns 420

Module 3
  Name noise-reduce
  Inputs 36
  Outputs 36
  Bidirs 0
  ScanChains 6 : 180 178 176 174 172 170
  Patterns 380

Module 4
  Name scaler
  Inputs 32
  Outputs 40
  Bidirs 0
  ScanChains 3 : 120 118 116
  Patterns 250

Module 5
  Name jpeg
  Inputs 44
  Outputs 28
  Bidirs 0
  ScanChains 10 : 90 90 88 88 86 86 84 84 82 82
  Patterns 520

Module 6
  Name dma
  Inputs 24
  Outputs 32
  Bidirs 8
  Patterns 1500
`

func main() {
	log.SetFlags(0)
	s, err := sitam.ParseSOC(strings.NewReader(mySOC))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.Summary())

	patterns, err := sitam.GeneratePatterns(s, sitam.GenConfig{N: 20000, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// Pick the grouping count by trying a few, exactly like the
	// experiments do.
	bestGroups := map[int][]*sitam.Group{}
	for _, g := range []int{1, 2, 3} {
		gr, err := sitam.BuildGroups(s, patterns, sitam.GroupingOptions{Parts: g, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		bestGroups[g] = gr.Groups
	}

	fmt.Printf("\n%-6s %14s %14s %9s\n", "Wmax", "baseline (cc)", "SI-aware (cc)", "saving")
	for _, w := range []int{8, 16, 24, 32} {
		var base, aware int64
		for _, g := range []int{1, 2, 3} {
			p := sitam.Problem{SOC: s, Wmax: w, Groups: bestGroups[g], Model: sitam.DefaultModel()}
			b, err := sitam.Solve(context.Background(), p, sitam.Options{Method: sitam.MethodBaseline})
			if err != nil {
				log.Fatal(err)
			}
			a, err := sitam.Solve(context.Background(), p, sitam.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if base == 0 || b.Breakdown.TimeSOC < base {
				base = b.Breakdown.TimeSOC
			}
			if aware == 0 || a.Breakdown.TimeSOC < aware {
				aware = a.Breakdown.TimeSOC
			}
		}
		fmt.Printf("%-6d %14d %14d %8.1f%%\n",
			w, base, aware, 100*float64(base-aware)/float64(base))
	}

	// Show the winning architecture at W=16 in detail.
	res, err := sitam.Solve(context.Background(),
		sitam.Problem{SOC: s, Wmax: 16, Groups: bestGroups[2], Model: sitam.DefaultModel()}, sitam.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSI-aware architecture at W_max=16:\n%s%s", res.Architecture, res.Schedule)
}
