// Command socinfo prints design-exploration data for an SOC: per-core
// wrapper test times across TAM widths, total test data volume, the
// theoretical InTest lower bound per width, and how close TR-Architect
// gets to it. It is the first stop when sizing a TAM budget.
//
//	socinfo -soc p34392
//	socinfo -file mydesign.soc -w 8,16,32
//
// With -timeout, or on SIGINT/SIGTERM, the bound table stops at the
// widths computed so far with a "RESULT PARTIAL" marker and exit code
// 3. Exit codes: 0 success, 1 error, 3 partial result.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"sitam/cmd/internal/cli"
	"sitam/internal/core"
	"sitam/internal/obs"
	"sitam/internal/trarchitect"
	"sitam/internal/wrapper"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("socinfo: ")
	var (
		socName = flag.String("soc", "p34392", "embedded benchmark SOC name")
		file    = flag.String("file", "", ".soc file to load instead of a benchmark")
		widths  = flag.String("w", "1,8,16,32,64", "comma-separated TAM widths to tabulate")
		stats   = flag.Bool("stats", false, "print the accumulated optimizer metrics (evaluations, cache, phase timings) to stderr")
		timeout = flag.Duration("timeout", 0, "deadline; on expiry the rows computed so far are printed and the exit code is 3 (0 = none)")
	)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	s, err := cli.LoadSOC(*file, *socName)
	if err != nil {
		log.Fatal(err)
	}
	ws, err := parseWidths(*widths)
	if err != nil {
		log.Fatal(err)
	}

	// The partial paths exit through os.Exit, which skips deferred
	// calls, so they flush the metrics snapshot themselves.
	var metrics *obs.Registry
	printStats := func() {
		if metrics != nil {
			fmt.Fprint(os.Stderr, "run metrics:\n"+metrics.Snapshot().Format())
		}
	}
	if *stats {
		metrics = obs.NewRegistry()
	}
	defer printStats()

	fmt.Println(s.Summary())
	fmt.Println()

	// Per-core wrapper test times.
	fmt.Printf("%-6s %-10s %6s %6s %6s %9s", "core", "name", "in", "out", "scan", "patterns")
	for _, w := range ws {
		fmt.Printf(" %12s", fmt.Sprintf("T(w=%d)", w))
	}
	fmt.Println()
	for _, c := range s.Cores() {
		name := c.Name
		if name == "" {
			name = "-"
		}
		fmt.Printf("%-6d %-10s %6d %6d %6d %9d", c.ID, name, c.WIC(), c.WOC(), c.ScanBits(), c.Patterns)
		for _, w := range ws {
			t, err := wrapper.InTestTime(c, w)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %12d", t)
		}
		fmt.Println()
	}

	// SOC-level bounds and achieved times.
	fmt.Printf("\n%-8s %14s %14s %9s\n", "Wmax", "lower bound", "TR-Architect", "gap")
	for _, w := range ws {
		if w < 1 {
			continue
		}
		if ctx.Err() != nil {
			stop()
			fmt.Printf("RESULT PARTIAL (%s): stopped before W=%d\n", cli.Cause(ctx), w)
			printStats()
			os.Exit(cli.ExitPartial)
		}
		lb, err := trarchitect.LowerBound(s, w)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Solve(ctx, core.Problem{SOC: s, Wmax: w}, core.Options{
			Method: core.MethodBaseline, ParallelConfig: core.ParallelConfig{Workers: 1, CacheSize: -1, Metrics: metrics},
		})
		if err != nil {
			if cli.IsCtxErr(err) {
				// Deadline fired before W=w produced anything usable
				// (e.g. during the lower-bound computation just above).
				stop()
				fmt.Printf("RESULT PARTIAL (%s): stopped before W=%d\n", cli.Cause(ctx), w)
				printStats()
				os.Exit(cli.ExitPartial)
			}
			log.Fatal(err)
		}
		got := res.Breakdown.TimeIn
		fmt.Printf("%-8d %14d %14d %8.1f%%\n", w, lb, got, 100*float64(got-lb)/float64(lb))
		if res.Partial {
			stop()
			fmt.Printf("RESULT PARTIAL (%s): W=%d row is the best architecture found before interruption (%s)\n",
				cli.Cause(ctx), w, res.Reason)
			printStats()
			os.Exit(cli.ExitPartial)
		}
	}
}

func parseWidths(list string) ([]int, error) {
	var ws []int
	for _, f := range strings.Split(list, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad width %q", f)
		}
		ws = append(ws, w)
	}
	return ws, nil
}
