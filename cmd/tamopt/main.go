// Command tamopt designs a TestRail test access architecture for an SOC
// and prints the resulting rails, test schedule and time breakdown.
//
// Usage:
//
//	tamopt -soc p93791 -w 32 -nr 10000 -g 4 [-seed 1] [-baseline] [-file design.soc] [-timeout 30s]
//
// With -baseline the architecture is optimized for core-internal test
// only (TR-Architect); otherwise the SI-aware TAM_Optimization algorithm
// of the paper is used. Either way the SI test groups produced by the
// two-dimensional compaction pipeline are scheduled on the final
// architecture and the combined time is reported.
//
// The optimization is an anytime algorithm: with -timeout, on
// SIGINT/SIGTERM, or when the -budget evaluation allowance runs out,
// the best architecture found so far is printed with a "RESULT PARTIAL"
// marker naming the cause (deadline, interrupted, budget) and the
// command exits with code 3. Exit codes: 0 success, 1 error, 3 partial
// result.
//
// Observability: -trace writes the structured search trace as JSONL
// (summarize it with sitrace), -stats prints the run's metrics snapshot
// after the result, and -cpuprofile/-memprofile/-httpprof enable the
// standard Go profilers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"sitam/cmd/internal/cli"
	"sitam/internal/core"
	"sitam/internal/obs"
	"sitam/internal/report"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tamopt: ")
	var (
		socName  = flag.String("soc", "p93791", "embedded benchmark SOC name")
		file     = flag.String("file", "", ".soc file to load instead of an embedded benchmark")
		wmax     = flag.Int("w", 32, "total TAM width W_max")
		nr       = flag.Int("nr", 10000, "initial SI pattern count N_r")
		parts    = flag.Int("g", 4, "SI test grouping count g")
		seed     = flag.Int64("seed", 1, "random seed for pattern generation and partitioning")
		baseline = flag.Bool("baseline", false, "optimize for InTest only (TR-Architect baseline)")
		gantt    = flag.Bool("gantt", false, "render the SI schedule as an ASCII Gantt chart")
		jsonOut  = flag.String("json", "", "also write the result as JSON to this file (\"-\" for stdout)")
		ils      = flag.Int("ils", 0, "iterated-local-search kicks after the greedy optimization (0 = paper's algorithm)")
		restarts = flag.Int("restarts", 1, "independent ILS restarts with seeds seed, seed+1, ... (only with -ils > 0)")
		workers  = flag.Int("workers", 0, "concurrent candidate evaluations and compaction workers (0 = GOMAXPROCS, 1 = serial); results are identical at any worker count")
		cache    = flag.Int("cache", 0, "evaluation cache capacity in entries (0 = default, negative = disabled)")
		cacheFil = flag.String("cache-file", "", "persistent evaluation-cache file: loaded before the run, appended during it; a locked or damaged file degrades to memory-only")
		timeout  = flag.Duration("timeout", 0, "overall deadline; on expiry the best result so far is printed and the exit code is 3 (0 = none)")
		budget   = flag.Int64("budget", 0, "objective-evaluation budget; on exhaustion the best result so far is printed and the exit code is 3 (0 = unlimited)")
		traceOut = flag.String("trace", "", "write the structured search trace as JSONL to this file")
		stats    = flag.Bool("stats", false, "print the run's metrics snapshot (evaluations, cache, worker pool, phase timings) after the result")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		httpProf = flag.String("httpprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	profStop, err := cli.Profile(*cpuProf, *memProf, *httpProf)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()

	cfg := core.ParallelConfig{Workers: *workers, CacheSize: *cache, MaxEvals: *budget}
	if *cacheFil != "" && *cache >= 0 {
		cf, cferr := core.OpenCacheFile(*cacheFil)
		if cferr != nil {
			// Persistence is an accelerator, never a gate: run memory-only.
			log.Printf("cache file %s unavailable (%v); continuing without persistence", *cacheFil, cferr)
		} else {
			defer func() {
				if cerr := cf.Close(); cerr != nil {
					log.Printf("cache file %s: close: %v (appends since the last sync may be lost)", *cacheFil, cerr)
				}
			}()
			cfg.Persist = cf
		}
	}
	method := core.MethodSI
	switch {
	case *baseline:
		method = core.MethodBaseline
	case *ils > 0:
		method = core.MethodILS
	}
	o := options{
		socName: *socName, file: *file, wmax: *wmax, nr: *nr, parts: *parts,
		seed: *seed, gantt: *gantt, jsonOut: *jsonOut,
		stats: *stats, traceFile: *traceOut,
	}
	if *traceOut != "" {
		o.tracer = obs.NewTracer()
		cfg.Trace = o.tracer
	}
	if *stats {
		cfg.Metrics = obs.NewRegistry()
	}
	o.solve = core.Options{Method: method, Kicks: *ils, Restarts: *restarts, Seed: *seed, ParallelConfig: cfg}

	partial, reason, cause, err := run(ctx, o)
	stop()
	if perr := profStop(); perr != nil {
		log.Fatal(perr)
	}
	if err != nil {
		if cli.IsCtxErr(err) {
			// The deadline or signal fired before anything usable was
			// produced: still a cut-short run, not an input error.
			fmt.Printf("RESULT PARTIAL (%s): %v\n", cli.Cause(ctx), err)
			os.Exit(cli.ExitPartial)
		}
		log.Fatal(err)
	}
	if partial {
		fmt.Printf("RESULT PARTIAL (%s): %s\n", cause, reason)
		os.Exit(cli.ExitPartial)
	}
}

type options struct {
	socName, file, jsonOut string
	wmax, nr, parts        int
	seed                   int64
	gantt, stats           bool
	traceFile              string
	tracer                 *obs.Tracer
	solve                  core.Options
}

// sink adapts the optional tracer to the Sink interface without ever
// wrapping a nil pointer in a non-nil interface.
func (o options) sink() obs.Sink {
	if o.tracer == nil {
		return nil
	}
	return o.tracer
}

// run executes the pipeline and reports whether any stage returned a
// degraded (partial) result, along with the cause label for the marker.
// It is a separate function so its deferred file closes run before main
// decides the exit code.
func run(ctx context.Context, o options) (partial bool, reason, cause string, err error) {
	s, err := loadSOC(o.file, o.socName)
	if err != nil {
		return false, "", "", err
	}
	fmt.Println(s.Summary())

	span := obs.Span(o.sink(), "pattern generation")
	patterns, cut, err := sifault.GenerateCtx(ctx, s, sifault.GenConfig{N: o.nr, Seed: o.seed})
	if err != nil {
		return false, "", "", err
	}
	if cut {
		partial, reason, cause = true, fmt.Sprintf("pattern generation stopped at %d of %d patterns", len(patterns), o.nr), cli.Cause(ctx)
		if sink := o.sink(); sink != nil {
			sink.Emit(obs.Event{Type: obs.DeadlineHit, Phase: "pattern generation", Cause: obs.CtxCause(ctx.Err())})
		}
	}
	span.End(0, int64(len(patterns)))

	grouping, err := core.BuildGroupsCtx(ctx, s, patterns, core.GroupingOptions{
		Parts: o.parts, Seed: o.seed, Trace: o.sink(),
		CompactWorkers: o.solve.Workers, Metrics: o.solve.Metrics,
	})
	if err != nil {
		return false, "", "", err
	}
	if grouping.Partial && !partial {
		partial, reason, cause = true, grouping.Reason, cli.Cause(ctx)
	}
	fmt.Printf("SI compaction: %d patterns -> %d compacted in %d groups (ratio %.1fx, %d residual)\n",
		grouping.Stats.Original, grouping.TotalCompacted(), len(grouping.Groups),
		grouping.Stats.Ratio(), grouping.CutPatterns)
	for _, g := range grouping.Groups {
		fmt.Printf("  %-4s: %5d patterns over %d cores\n", g.Name, g.Patterns, len(g.Cores))
	}

	res, err := core.Solve(ctx, core.Problem{SOC: s, Wmax: o.wmax, Groups: grouping.Groups, Model: sischedule.DefaultModel()}, o.solve)
	if err != nil {
		return false, "", "", err
	}
	if res.Partial && !partial {
		partial, reason = true, res.Reason
		if cause = res.Cause.Label(); cause == "" {
			cause = cli.Cause(ctx)
		}
	}

	fmt.Println()
	fmt.Print(res.Architecture)
	fmt.Print(res.Schedule)
	if o.gantt {
		fmt.Print(res.Architecture.InTestGantt(72))
		fmt.Print(res.Schedule.Gantt(len(res.Architecture.Rails), 72))
	}
	fmt.Printf("T_in=%d cc  T_si=%d cc  T_soc=%d cc\n",
		res.Breakdown.TimeIn, res.Breakdown.TimeSI, res.Breakdown.TimeSOC)

	if o.stats {
		fmt.Println()
		fmt.Println("run metrics:")
		fmt.Print(res.Metrics.Format())
	}
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return false, "", "", err
		}
		werr := o.tracer.WriteJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return false, "", "", werr
		}
		log.Printf("wrote %d trace events to %s", o.tracer.Len(), o.traceFile)
	}

	if o.jsonOut != "" {
		w := os.Stdout
		if o.jsonOut != "-" {
			f, err := os.Create(o.jsonOut)
			if err != nil {
				return false, "", "", err
			}
			defer f.Close()
			w = f
		}
		if err := report.FromResult(res).Write(w); err != nil {
			return false, "", "", err
		}
	}
	return partial, reason, cause, nil
}

func loadSOC(file, name string) (*soc.SOC, error) {
	if file == "" {
		return soc.LoadBenchmark(name)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return soc.Parse(f)
}
