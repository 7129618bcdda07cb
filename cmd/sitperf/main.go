// Command sitperf is the performance-regression sentinel: it re-runs
// the benchmark suites behind the committed BENCH_*.json baselines,
// summarizes each benchmark with robust statistics (median and MAD
// across repetitions), and compares the medians against the baselines
// under a noise threshold.
//
//	sitperf                      # run every suite, human summary on stdout
//	sitperf -suites incremental  # one suite
//	sitperf -iters 5 -threshold 1.4
//	sitperf -report perf.json    # machine-readable comparison report
//	sitperf -update              # refresh the baselines from this run
//	sitperf -selftest            # verify the detector flags an injected 2x slowdown
//
// Exit codes: 0 clean, 1 run/usage error, 2 regression detected (the
// report names each offender). The threshold is deliberately generous:
// the baselines were captured on a shared VM whose wall-clock varies
// run to run by 20-40%, so only multiples beyond that band are flagged.
// The serve suite compares chaos-harness latency percentiles, which
// are noisier still; its threshold is scaled (see suite definitions).
// The lint suite times a full-module sitlint run and additionally
// enforces a hard 60s wall-clock smoke budget independent of the
// baseline, so analyzer work can never silently make `go vet` painful.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
)

// exit codes (cli.ExitOK/ExitError plus the sentinel's own verdict code).
const (
	exitOK         = 0
	exitError      = 1
	exitRegression = 2
)

// suite binds a committed baseline file to the bench invocations that
// reproduce its numbers.
type suite struct {
	name     string
	baseline string
	// thresholdScale relaxes the global threshold for suites with
	// intrinsically noisier measurements (chaos latency percentiles).
	thresholdScale float64
	runs           []benchRun
	// serveLatency marks the chaos-harness suite, which measures via a
	// test run writing CHAOS_BENCH_OUT instead of -bench output.
	serveLatency bool
	// lintSmoke marks the static-analysis suite: it builds the sitlint
	// vettool and times a full-module standalone run, hard-failing past
	// the wall-clock budget regardless of the baseline comparison.
	lintSmoke bool
}

// benchRun is one `go test -bench` invocation.
type benchRun struct {
	pkg       string
	pattern   string
	benchtime string
}

var suites = []suite{
	{
		name:           "incremental",
		baseline:       "BENCH_incremental.json",
		thresholdScale: 1,
		runs: []benchRun{
			{pkg: ".", pattern: "Benchmark_IncrementalEval", benchtime: "2x"},
			{pkg: ".", pattern: "BenchmarkScheduleSITest", benchtime: "20000x"},
			{pkg: "./internal/compaction", pattern: "Benchmark_CompactionBitset", benchtime: "2x"},
		},
	},
	{
		name:           "parallel",
		baseline:       "BENCH_parallel.json",
		thresholdScale: 1,
		runs: []benchRun{
			{pkg: ".", pattern: "Benchmark_ParallelEval|Benchmark_CacheColdVsWarm", benchtime: "2x"},
		},
	},
	{
		name:           "serve",
		baseline:       "BENCH_serve.json",
		thresholdScale: 2.5,
		serveLatency:   true,
	},
	{
		name:           "compact",
		baseline:       "BENCH_compact.json",
		thresholdScale: 1,
		runs: []benchRun{
			{pkg: ".", pattern: "Benchmark_CachePersistentRestart", benchtime: "2x"},
		},
	},
	{
		name:     "lint",
		baseline: "BENCH_lint.json",
		// Full-module analysis wall-clock rides on the go build cache and
		// the VM's disk, both noisier than a tight bench loop.
		thresholdScale: 2,
		lintSmoke:      true,
	},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sitperf: ")
	var (
		suitesFlag = flag.String("suites", "incremental,parallel,serve,compact,lint", "comma-separated suites to run")
		iters      = flag.Int("iters", 3, "benchmark repetitions per suite (go test -count); median/MAD computed across them")
		threshold  = flag.Float64("threshold", 1.5, "regression bar: flag when measured median > baseline * threshold")
		update     = flag.Bool("update", false, "rewrite the baseline files from this run's medians instead of comparing")
		reportPath = flag.String("report", "", "write the machine-readable comparison report (JSON) to this path")
		baseDir    = flag.String("baselines", ".", "directory holding the BENCH_*.json baselines (the repo root)")
		selftest   = flag.Bool("selftest", false, "no benches: verify the comparator passes an unmodified run and flags an injected 2x slowdown")
		verbose    = flag.Bool("v", false, "stream go test output")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		log.Print("usage: sitperf [-suites a,b] [-iters n] [-threshold x] [-update] [-report file]")
		os.Exit(exitError)
	}

	selected, err := selectSuites(*suitesFlag)
	if err != nil {
		log.Print(err)
		os.Exit(exitError)
	}

	if *selftest {
		os.Exit(runSelftest(selected, *baseDir, *threshold))
	}

	rep := report{Threshold: *threshold, Iters: *iters}
	for _, s := range selected {
		base, err := loadBaseline(filepath.Join(*baseDir, s.baseline))
		if err != nil {
			log.Printf("%s: %v", s.name, err)
			os.Exit(exitError)
		}
		measured, err := measure(s, *iters, *verbose, *baseDir)
		if err != nil {
			log.Printf("%s: %v", s.name, err)
			os.Exit(exitError)
		}
		sr := compareSuite(s, base, measured, *threshold)
		rep.Suites = append(rep.Suites, sr)
		rep.Regressions += sr.Regressions

		if *update {
			if err := updateBaseline(filepath.Join(*baseDir, s.baseline), s, measured); err != nil {
				log.Printf("%s: updating baseline: %v", s.name, err)
				os.Exit(exitError)
			}
			fmt.Printf("updated %s\n", s.baseline)
		}
	}

	printReport(os.Stdout, &rep)
	if *reportPath != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Print(err)
			os.Exit(exitError)
		}
		if err := os.WriteFile(*reportPath, append(b, '\n'), 0o644); err != nil {
			log.Print(err)
			os.Exit(exitError)
		}
	}
	if !*update && rep.Regressions > 0 {
		os.Exit(exitRegression)
	}
	os.Exit(exitOK)
}

func selectSuites(names string) ([]suite, error) {
	var out []suite
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, s := range suites {
			if s.name == name {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown suite %q (have incremental, parallel, serve, compact, lint)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no suites selected")
	}
	return out, nil
}

// runSelftest exercises the comparator against synthetic measurements
// derived from the committed baselines themselves: an unmodified run
// must produce zero regressions, and the same run slowed 2x must flag
// every comparable entry. No benchmarks are executed.
func runSelftest(selected []suite, baseDir string, threshold float64) int {
	failed := false
	for _, s := range selected {
		base, err := loadBaseline(filepath.Join(baseDir, s.baseline))
		if err != nil {
			log.Printf("selftest %s: %v", s.name, err)
			return exitError
		}
		if len(base) == 0 {
			log.Printf("selftest %s: baseline has no comparable entries", s.name)
			failed = true
			continue
		}

		// The injected slowdown is 2x, pushed past the suite's scaled bar
		// when that bar itself exceeds 2 (the serve latency suite).
		factor := 2.0
		if bar := threshold * s.thresholdScale; factor <= bar {
			factor = bar * 1.5
		}
		clean := make(map[string][]float64, len(base))
		slowed := make(map[string][]float64, len(base))
		for name, v := range base {
			clean[name] = []float64{v, v, v}
			slowed[name] = []float64{factor * v, factor * v, factor * v}
		}
		if sr := compareSuite(s, base, clean, threshold); sr.Regressions != 0 {
			log.Printf("selftest %s: unmodified run flagged %d regressions", s.name, sr.Regressions)
			failed = true
		}
		sr := compareSuite(s, base, slowed, threshold)
		if sr.Regressions != len(base) {
			log.Printf("selftest %s: injected %.1fx slowdown flagged %d/%d entries", s.name, factor, sr.Regressions, len(base))
			failed = true
		}
		fmt.Printf("selftest %s: ok (%d entries, %.1fx slowdown flags all)\n", s.name, len(base), factor)
	}
	if failed {
		return exitError
	}
	return exitOK
}

func printReport(w *os.File, rep *report) {
	for _, sr := range rep.Suites {
		fmt.Fprintf(w, "suite %s (baseline %s, bar %.2fx):\n", sr.Suite, sr.Baseline, sr.Bar)
		for _, e := range sr.Entries {
			switch e.Status {
			case "new":
				fmt.Fprintf(w, "  %-48s %14.3f        (no baseline)\n", e.Name, e.Measured)
			default:
				fmt.Fprintf(w, "  %-48s %14.3f  %5.2fx  ±%.1f%%  %s\n",
					e.Name, e.Measured, e.Ratio, e.NoisePct, e.Status)
			}
		}
	}
	if rep.Regressions > 0 {
		fmt.Fprintf(w, "REGRESSION: %d benchmark(s) beyond threshold %.2fx\n", rep.Regressions, rep.Threshold)
	} else {
		fmt.Fprintf(w, "no regressions beyond threshold %.2fx\n", rep.Threshold)
	}
}
