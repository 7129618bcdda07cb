// Command socbench regenerates the paper's evaluation artifacts: Table 2
// (SOC p34392) and Table 3 (SOC p93791), comparing the SI-oblivious
// TR-Architect baseline T_[8] against the SI-aware TAM_Optimization
// results T_g_i for several SI test grouping counts, plus the Section 2
// motivation estimate.
//
// Usage:
//
//	socbench                      # both tables, full paper sweep
//	socbench -soc p34392          # one table
//	socbench -quick               # reduced sweep for a fast smoke run
//	socbench -markdown            # emit GitHub-flavored markdown
//	socbench -ablation            # run the ablation sweeps instead
//	socbench -scenarios 200       # constrained-scenario matrix instead
//
// The full sweep takes a few seconds on two cores; use -v to watch
// progress. With -timeout, or on SIGINT/SIGTERM, the cells
// completed so far are printed with a "RESULT PARTIAL" marker and the
// exit code is 3. Exit codes: 0 success, 1 error, 3 partial result.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"sitam/cmd/internal/cli"
	"sitam/internal/core"
	"sitam/internal/experiments"
	"sitam/internal/obs"
	"sitam/internal/soc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("socbench: ")
	var (
		socName  = flag.String("soc", "", "run a single benchmark SOC (default: all)")
		quick    = flag.Bool("quick", false, "reduced sweep (fewer widths, smaller Nr)")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		verbose  = flag.Bool("v", false, "log progress (generations, groupings, solves, cells) to stderr")
		seed     = flag.Int64("seed", 1, "random seed")
		ablation = flag.Bool("ablation", false, "run ablation sweeps instead of the main tables")
		nScen    = flag.Int("scenarios", 0, "run N seeded constrained-scheduling scenarios (seed, seed+1, ...) through the solve-and-check harness instead of the main tables")
		coverage = flag.Bool("coverage", false, "run the SI fault coverage experiment instead of the main tables")
		workers  = flag.Int("workers", 0, "concurrent sweep tasks (pattern generations, groupings and solves, each on one core; 0 = GOMAXPROCS, 1 = serial); table numbers are identical at any worker count")
		cacheFil = flag.String("cache-file", "", "persistent evaluation-cache file shared by every cell of the sweep; a locked or damaged file degrades to memory-only")
		timeout  = flag.Duration("timeout", 0, "deadline; on expiry the completed cells are printed and the exit code is 3 (0 = none)")
		stats    = flag.Bool("stats", false, "print the accumulated metrics snapshot (worker pool, phase timings) to stderr after the tables")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		httpProf = flag.String("httpprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	profStop, err := cli.Profile(*cpuProf, *memProf, *httpProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := profStop(); err != nil {
			log.Print(err)
		}
	}()
	var metrics *obs.Registry
	printStats := func() {
		if metrics != nil {
			fmt.Fprint(os.Stderr, "run metrics:\n"+metrics.Snapshot().Format())
		}
	}
	if *stats {
		metrics = obs.NewRegistry()
		defer printStats()
	}

	var persist *core.CacheFile
	if *cacheFil != "" {
		cf, cferr := core.OpenCacheFile(*cacheFil)
		if cferr != nil {
			log.Printf("cache file %s unavailable (%v); continuing without persistence", *cacheFil, cferr)
		} else {
			defer func() {
				if cerr := cf.Close(); cerr != nil {
					log.Printf("cache file %s: close: %v (appends since the last sync may be lost)", *cacheFil, cerr)
				}
			}()
			persist = cf
		}
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	// os.Exit skips deferred calls, so the partial-exit path flushes the
	// profilers and the metrics snapshot itself.
	exitPartial := func(reason string) {
		stop()
		fmt.Printf("RESULT PARTIAL (%s): %s\n", cli.Cause(ctx), reason)
		if err := profStop(); err != nil {
			log.Print(err)
		}
		printStats()
		os.Exit(cli.ExitPartial)
	}

	if *ablation {
		if err := experiments.RunAblations(ctx, os.Stdout, *seed, *quick); err != nil {
			if cli.IsCtxErr(err) {
				exitPartial("ablation study stopped early")
			}
			log.Fatal(err)
		}
		return
	}
	if *nScen > 0 {
		solved, err := runScenarioMatrix(ctx, os.Stdout, *seed, *nScen, *markdown)
		if err != nil {
			log.Fatal(err)
		}
		if solved < *nScen {
			exitPartial(fmt.Sprintf("%d of %d scenarios solved", solved, *nScen))
		}
		return
	}
	if *coverage {
		if err := experiments.RunCoverage(ctx, os.Stdout, *seed, *quick); err != nil {
			if cli.IsCtxErr(err) {
				exitPartial("coverage experiment stopped early")
			}
			log.Fatal(err)
		}
		return
	}

	fmt.Println(experiments.DefaultMotivation().Format())

	names := []string{"p34392", "p93791"}
	if *socName != "" {
		names = []string{*socName}
	}
	partialReason := ""
	for _, name := range names {
		s, err := soc.LoadBenchmark(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg := experiments.TableConfig{
			Seed: *seed, Progress: progress,
			Parallel: core.ParallelConfig{Workers: *workers, CacheSize: core.DefaultCacheSize, Metrics: metrics, Persist: persist},
		}
		if *quick {
			cfg.Widths = []int{16, 32, 64}
			cfg.Nr = []int{10000}
		}
		tbl, err := experiments.RunTableCtx(ctx, s, cfg)
		if err != nil {
			if cli.IsCtxErr(err) {
				exitPartial(fmt.Sprintf("no completed cells for %s", name))
			}
			log.Fatal(err)
		}
		if *markdown {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.Format())
		}
		if tbl.Partial {
			partialReason = fmt.Sprintf("%s: %s", name, tbl.Reason)
			break
		}
	}
	if partialReason != "" {
		exitPartial(partialReason)
	}
}
