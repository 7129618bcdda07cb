// Command sitrace summarizes a structured search trace written by
// tamopt -trace: per-phase wall-clock and counts, merge acceptance
// rates, ILS kicks, interruptions, and the convergence curve of the
// best objective versus candidate evaluations. Cache and evaluation
// counts are not in the trace; tamopt -stats prints them.
//
//	tamopt -soc d695 -w 16 -trace run.jsonl
//	sitrace run.jsonl              # summary
//	sitrace -check run.jsonl       # schema, span-balance, per-job-span and power-budget validation
//	sitrace -curve run.jsonl       # convergence curve as CSV on stdout
//	sitrace -diff a.jsonl b.jsonl  # phase-time and convergence comparison of two runs
//
// The input is read from the file argument, or stdin when the argument
// is "-" or absent (-diff takes exactly two file arguments). Every
// line is validated against the event schema before any reporting; an
// invalid trace exits with code 1. A trace whose events all carry a
// job ID is read as a sitamd flight recording (GET /v1/jobs/{id}/trace):
// its seqs need only increase within each job, and the summary and
// -check report how many events the recording elided.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"sitam/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sitrace: ")
	var (
		check = flag.Bool("check", false, "validate the trace against the event schema and exit")
		curve = flag.Bool("curve", false, "print the convergence curve as \"seq,evals,best\" CSV instead of the summary")
		diff  = flag.Bool("diff", false, "compare two traces' phase times and convergence (takes two file arguments)")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			log.Fatal("usage: sitrace -diff a.jsonl b.jsonl")
		}
		var traces [2][]obs.Event
		for i := 0; i < 2; i++ {
			events, err := read(flag.Arg(i))
			if err != nil {
				log.Fatal(err)
			}
			if _, err := validate(events); err != nil {
				log.Fatalf("%s: %v", flag.Arg(i), err)
			}
			traces[i] = events
		}
		diffTraces(os.Stdout, flag.Arg(0), traces[0], flag.Arg(1), traces[1])
		return
	}
	if flag.NArg() > 1 {
		log.Fatal("usage: sitrace [-check|-curve|-diff] [trace.jsonl]")
	}

	events, err := read(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	size, err := validate(events)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *check:
		// Only -check enforces span balance: the summary stays usable
		// on traces truncated by a killed process.
		if err := obs.ValidateSpans(events); err != nil {
			log.Fatal(err)
		}
		// Daemon traces stamp every event with a job-correlation ID;
		// spans must balance within each job, not just globally — two
		// interleaved jobs can hide each other's unclosed spans.
		if err := obs.ValidateJobSpans(events); err != nil {
			log.Fatal(err)
		}
		// Power-annotated schedules must stay within their budget at
		// every instant; the check reconstructs the concurrency from the
		// si_group_scheduled events alone.
		if err := obs.ValidateSchedulePower(events); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace OK: %s\n", size)
	case *curve:
		fmt.Println("seq,evals,best")
		for _, p := range obs.Curve(events) {
			fmt.Printf("%d,%d,%d\n", p.Seq, p.Evals, p.Best)
		}
	default:
		summarize(os.Stdout, events, size)
	}
}

// validate checks a trace and describes its size. A flight recording
// (every event carries a job ID) goes through obs.ValidateRecording
// and its description counts the elided events; any other trace must
// be numbered contiguously from 0.
func validate(events []obs.Event) (size string, err error) {
	size = fmt.Sprintf("%d events", len(events))
	for i := range events {
		if events[i].Job == "" {
			return size, obs.ValidateTrace(events)
		}
	}
	if len(events) == 0 {
		return size, nil
	}
	elided, err := obs.ValidateRecording(events)
	return fmt.Sprintf("%s, %d elided", size, elided), err
}

func read(name string) ([]obs.Event, error) {
	var r io.Reader = os.Stdin
	if name != "" && name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return obs.ReadJSONL(r)
}

func summarize(w io.Writer, events []obs.Event, size string) {
	fmt.Fprintf(w, "trace: %s\n", size)

	if phases := obs.AggregatePhases(events); len(phases) > 0 {
		fmt.Fprintf(w, "phases:\n  %-24s %6s %12s %12s\n", "phase", "spans", "wall(ms)", "n")
		for _, pa := range phases {
			fmt.Fprintf(w, "  %-24s %6d %12.1f %12d\n",
				pa.Phase, pa.Spans, float64(pa.WallNS)/1e6, pa.N)
		}
	}

	var accepted, rejected, candidates int
	var kicks int
	var kickBest int64
	for i := range events {
		switch ev := &events[i]; ev.Type {
		case obs.MergeAccepted:
			accepted++
		case obs.MergeRejected:
			rejected++
		case obs.CandidateEvaluated:
			candidates++
		case obs.ILSKick:
			kicks++
			kickBest = ev.Best
		}
	}
	fmt.Fprintf(w, "candidates evaluated: %d\n", candidates)
	if accepted+rejected > 0 {
		fmt.Fprintf(w, "merge batches: %d accepted, %d rejected (%.1f%% accepted)\n",
			accepted, rejected, 100*float64(accepted)/float64(accepted+rejected))
	}
	if kicks > 0 {
		fmt.Fprintf(w, "ILS: %d kicks, best %d\n", kicks, kickBest)
	}
	for i := range events {
		if ev := &events[i]; ev.Type == obs.DeadlineHit {
			fmt.Fprintf(w, "interrupted: %s during %s", ev.Cause, ev.Phase)
			if ev.Kick > 0 {
				fmt.Fprintf(w, " (kick %d)", ev.Kick)
			}
			fmt.Fprintln(w)
		}
	}

	if curve := obs.Curve(events); len(curve) > 0 {
		fmt.Fprintf(w, "convergence: %d improvements over %d evaluations\n",
			len(curve), candidates)
		fmt.Fprintf(w, "final best objective: %d\n", curve[len(curve)-1].Best)
	}
}
