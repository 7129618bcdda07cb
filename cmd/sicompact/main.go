// Command sicompact runs the paper's two-dimensional SI test-set
// compaction on a pattern file produced by sigen: hypergraph
// partitioning of the cores into -g groups followed by greedy
// clique-cover compaction within each group. It reports the compaction
// statistics and optionally writes the compacted patterns.
//
//	sigen -soc p93791 -nr 100000 -o raw.pat
//	sicompact -soc p93791 -g 4 raw.pat -o compact.pat
//
// With -timeout, or on SIGINT/SIGTERM, compaction degrades gracefully:
// remaining patterns pass through unmerged, the output is still a valid
// cover of the input set, a "RESULT PARTIAL" marker is printed and the
// exit code is 3. Exit codes: 0 success, 1 error, 3 partial result.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sitam/cmd/internal/cli"
	"sitam/internal/core"
	"sitam/internal/obs"
	"sitam/internal/sifault"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sicompact: ")
	var (
		socName = flag.String("soc", "p93791", "embedded benchmark SOC name")
		file    = flag.String("file", "", ".soc file to load instead of a benchmark")
		parts   = flag.Int("g", 1, "number of SI test groups (1 = vertical compaction only)")
		seed    = flag.Int64("seed", 1, "partitioner seed")
		out     = flag.String("o", "", "write compacted patterns to this file")
		stats   = flag.Bool("stats", false, "print partition/compaction phase metrics to stderr")
		timeout = flag.Duration("timeout", 0, "deadline; on expiry the partially compacted set is emitted and the exit code is 3 (0 = none)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: sicompact [flags] <pattern file>")
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()

	partial, reason, err := run(ctx, *socName, *file, *parts, *seed, *out, flag.Arg(0), *stats)
	stop()
	if err != nil {
		if cli.IsCtxErr(err) {
			fmt.Printf("RESULT PARTIAL (%s): %v\n", cli.Cause(ctx), err)
			os.Exit(cli.ExitPartial)
		}
		log.Fatal(err)
	}
	if partial {
		fmt.Printf("RESULT PARTIAL (%s): %s\n", cli.Cause(ctx), reason)
		os.Exit(cli.ExitPartial)
	}
}

func run(ctx context.Context, socName, file string, parts int, seed int64, out, patFile string, stats bool) (partial bool, reason string, err error) {
	s, err := cli.LoadSOC(file, socName)
	if err != nil {
		return false, "", err
	}
	sp := sifault.NewSpace(s)

	in, err := os.Open(patFile)
	if err != nil {
		return false, "", err
	}
	total, bus, patterns, err := sifault.ReadPatterns(in)
	in.Close()
	if err != nil {
		return false, "", err
	}
	if total != sp.Total() || bus != sp.BusWidth() {
		return false, "", fmt.Errorf("pattern space (%d,%d) does not match SOC %s (%d,%d)",
			total, bus, s.Name, sp.Total(), sp.BusWidth())
	}

	var tracer *obs.Tracer
	gopts := core.GroupingOptions{Parts: parts, Seed: seed, KeepPatterns: out != ""}
	if stats {
		tracer = obs.NewTracer()
		gopts.Trace = tracer
	}
	gr, err := core.BuildGroupsCtx(ctx, s, patterns, gopts)
	if err != nil {
		return false, "", err
	}
	if stats {
		// Fold the trace's phase spans into a metrics snapshot, using
		// the same phase_ns_* naming as the optimizer's registry.
		reg := obs.NewRegistry()
		for _, ev := range tracer.Events() {
			if ev.Type == obs.PhaseEnd {
				reg.Histogram("phase_ns_" + strings.ReplaceAll(ev.Phase, " ", "_")).Observe(ev.DurNS)
			}
		}
		fmt.Fprint(os.Stderr, "run metrics:\n"+reg.Snapshot().Format())
	}
	fmt.Printf("%s: %d patterns -> %d compacted (%.2fx) in %d groups, %d residual\n",
		s.Name, gr.Stats.Original, gr.TotalCompacted(), gr.Stats.Ratio(),
		len(gr.Groups), gr.CutPatterns)
	for _, g := range gr.Groups {
		length := 0
		for _, id := range g.Cores {
			length += s.CoreByID(id).WOC()
		}
		fmt.Printf("  %-4s: %6d patterns, %2d cores, pattern length %d WOCs\n",
			g.Name, g.Patterns, len(g.Cores), length)
	}

	if out != "" {
		var all []*sifault.Pattern
		for _, ps := range gr.GroupPatterns {
			all = append(all, ps...)
		}
		f, err := os.Create(out)
		if err != nil {
			return false, "", err
		}
		werr := sifault.WritePatterns(f, sp, all)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return false, "", werr
		}
		log.Printf("wrote %d compacted patterns to %s", len(all), out)
	}
	return gr.Partial, gr.Reason, nil
}
