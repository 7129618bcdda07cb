// Command sigen generates interconnect SI test patterns for an SOC and
// writes them in the sitam pattern text format (stdout by default).
//
// Two generation modes are available:
//
//	sigen -soc p93791 -nr 10000 -seed 1            # the paper's random protocol
//	sigen -soc p93791 -model ma -fanout 2 -k 3      # deterministic, topology-driven
//
// The random mode follows Section 5 of the paper (one victim, 2-6
// aggressors, at most two outside the victim core, 50% shared-bus
// usage). The topology mode builds a random netlist and synthesizes the
// maximal-aggressor ("ma") or reduced multiple-transition ("mt") test
// set for it.
//
// With -timeout, or on SIGINT/SIGTERM, random generation stops early
// and the prefix generated so far is written: since stdout carries the
// pattern data, the "RESULT PARTIAL" marker goes to stderr and the exit
// code is 3. Exit codes: 0 success, 1 error, 3 partial result.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"time"

	"sitam/cmd/internal/cli"
	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sigen: ")
	var (
		socName = flag.String("soc", "p93791", "embedded benchmark SOC name")
		file    = flag.String("file", "", ".soc file to load instead of a benchmark")
		out     = flag.String("o", "", "output file (default stdout)")
		seed    = flag.Int64("seed", 1, "random seed")

		nr      = flag.Int("nr", 10000, "random mode: number of patterns")
		busProb = flag.Float64("bus", 0.5, "random mode: shared-bus usage probability")
		quiesce = flag.Float64("quiesce", 1.0, "random mode: victim-core background quiescing probability")

		model   = flag.String("model", "", "topology mode: fault model, \"ma\" or \"mt\"")
		fanout  = flag.Int("fanout", 2, "topology mode: connections per core")
		width   = flag.Int("width", 32, "topology mode: bits per connection")
		k       = flag.Int("k", 3, "topology mode: coupling locality factor")
		capN    = flag.Int("cap", 0, "topology mode: cap on mt pattern count (0 = none)")
		stats   = flag.Bool("stats", false, "print pattern-set statistics and generation metrics to stderr")
		timeout = flag.Duration("timeout", 0, "deadline; on expiry the patterns generated so far are written and the exit code is 3 (0 = none)")
	)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	partial, err := run(ctx, genOptions{
		socName: *socName, file: *file, out: *out, seed: *seed,
		nr: *nr, busProb: *busProb, quiesce: *quiesce,
		model: *model, fanout: *fanout, width: *width, k: *k, capN: *capN,
		stats: *stats,
	})
	stop()
	if err != nil {
		if cli.IsCtxErr(err) {
			fmt.Fprintf(os.Stderr, "sigen: RESULT PARTIAL (%s): %v\n", cli.Cause(ctx), err)
			os.Exit(cli.ExitPartial)
		}
		log.Fatal(err)
	}
	if partial {
		fmt.Fprintf(os.Stderr, "sigen: RESULT PARTIAL (%s): generation stopped early\n", cli.Cause(ctx))
		os.Exit(cli.ExitPartial)
	}
}

type genOptions struct {
	socName, file, out, model  string
	nr, fanout, width, k, capN int
	busProb, quiesce           float64
	seed                       int64
	stats                      bool
}

func run(ctx context.Context, o genOptions) (partial bool, err error) {
	s, err := cli.LoadSOC(o.file, o.socName)
	if err != nil {
		return false, err
	}

	genStart := time.Now()
	var patterns []*sifault.Pattern
	switch o.model {
	case "":
		patterns, partial, err = sifault.GenerateCtx(ctx, s, sifault.GenConfig{
			N: o.nr, Seed: o.seed, BusProb: orNeg(o.busProb), QuiesceProb: orNeg(o.quiesce),
		})
	case "ma", "mt":
		var topo *topology.Topology
		topo, err = topology.Random(s, topology.RandomConfig{
			FanOut: o.fanout, Width: o.width, BusFraction: o.busProb,
		}, o.seed)
		if err != nil {
			break
		}
		if o.model == "ma" {
			patterns, err = topology.MAPatterns(topo, o.k)
		} else {
			patterns, err = topology.ReducedMTPatterns(topo, o.k, o.capN)
		}
	default:
		err = fmt.Errorf("unknown -model %q (want \"ma\" or \"mt\")", o.model)
	}
	if err != nil {
		return false, err
	}
	genDur := time.Since(genStart)

	w, closeOut := os.Stdout, func() error { return nil }
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return false, err
		}
		w, closeOut = f, f.Close
	}
	werr := sifault.WritePatterns(w, sifault.NewSpace(s), patterns)
	if cerr := closeOut(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return false, werr
	}
	log.Printf("wrote %d patterns for %s", len(patterns), s.Name)
	if o.stats {
		reg := obs.NewRegistry()
		reg.Counter("patterns").Add(int64(len(patterns)))
		reg.Histogram("phase_ns_pattern_generation").Observe(int64(genDur))
		fmt.Fprint(os.Stderr, "run metrics:\n"+reg.Snapshot().Format())
		fmt.Fprint(os.Stderr, sifault.Analyze(patterns).Format())
	}
	return partial, nil
}

// orNeg maps an explicit 0 flag value to the generator's "disabled"
// sentinel (-1), since the zero value selects the paper default.
func orNeg(v float64) float64 {
	if v == 0 {
		return -1
	}
	return v
}
