package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sitam/internal/obs"
)

func buildSitrace(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "sitrace")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func writeTrace(t *testing.T, events []obs.Event) string {
	t.Helper()
	for i := range events {
		events[i].Seq = uint64(i)
	}
	return writeRaw(t, events)
}

// writeRaw writes events with the seqs they carry.
func writeRaw(t *testing.T, events []obs.Event) string {
	t.Helper()
	name := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteJSONL(f, events); err != nil {
		t.Fatal(err)
	}
	return name
}

// TestCheckUnbalancedSpanFails drives `sitrace -check` against a trace
// whose schema is valid but whose greedy phase span is never closed:
// validation must fail.
func TestCheckUnbalancedSpanFails(t *testing.T) {
	bin := buildSitrace(t)
	trace := writeTrace(t, []obs.Event{
		{Type: obs.PhaseStart, Phase: "greedy"},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 10},
	})
	out, err := exec.Command(bin, "-check", trace).CombinedOutput()
	if err == nil {
		t.Fatalf("-check accepted a trace with an unclosed span:\n%s", out)
	}
	if !strings.Contains(string(out), "unbalanced phase spans") {
		t.Fatalf("unexpected failure output: %s", out)
	}

	// The summary mode must stay usable on the same (truncated) trace.
	if out, err := exec.Command(bin, trace).CombinedOutput(); err != nil {
		t.Fatalf("summary rejected a truncated trace: %v\n%s", err, out)
	}
}

// TestCheckPowerOverBudgetFails drives `sitrace -check` against a
// trace whose two overlapping si_group_scheduled events sum past their
// shared budget: per-event schema validation passes (each group alone
// fits), but the cross-event power sweep must fail.
func TestCheckPowerOverBudgetFails(t *testing.T) {
	bin := buildSitrace(t)
	trace := writeTrace(t, []obs.Event{
		{Type: obs.SIGroupScheduled, Group: "SI1", Rails: 1, Begin: 0, End: 100, Power: 60, Budget: 100},
		{Type: obs.SIGroupScheduled, Group: "SI2", Rails: 1, Begin: 50, End: 150, Power: 60, Budget: 100},
	})
	out, err := exec.Command(bin, "-check", trace).CombinedOutput()
	if err == nil {
		t.Fatalf("-check accepted a trace exceeding its power budget:\n%s", out)
	}
	if !strings.Contains(string(out), "exceeds budget") {
		t.Fatalf("unexpected failure output: %s", out)
	}

	// Disjoint in time: same groups, no overlap, must pass.
	trace = writeTrace(t, []obs.Event{
		{Type: obs.SIGroupScheduled, Group: "SI1", Rails: 1, Begin: 0, End: 100, Power: 60, Budget: 100},
		{Type: obs.SIGroupScheduled, Group: "SI2", Rails: 1, Begin: 100, End: 200, Power: 60, Budget: 100},
	})
	if out, err := exec.Command(bin, "-check", trace).CombinedOutput(); err != nil {
		t.Fatalf("-check rejected a budget-respecting trace: %v\n%s", err, out)
	}
}

// TestCheckUnbalancedJobSpansFails drives `sitrace -check` against a
// trace where the spans balance globally but cross job-correlation
// IDs: job a opens "greedy" and job b closes it. Global span balance
// passes; the per-job check must fail.
func TestCheckUnbalancedJobSpansFails(t *testing.T) {
	bin := buildSitrace(t)
	trace := writeTrace(t, []obs.Event{
		{Type: obs.PhaseStart, Phase: "greedy", Job: "a"},
		{Type: obs.PhaseEnd, Phase: "greedy", Job: "b"},
	})
	out, err := exec.Command(bin, "-check", trace).CombinedOutput()
	if err == nil {
		t.Fatalf("-check accepted spans crossing job IDs:\n%s", out)
	}
	if !strings.Contains(string(out), `job "a"`) {
		t.Fatalf("failure should name the offending job: %s", out)
	}
}

// TestDiffTraces drives `sitrace -diff` over two traces that differ
// in phase time, phase set and final objective; the comparison must
// surface all three.
func TestDiffTraces(t *testing.T) {
	bin := buildSitrace(t)
	a := writeTrace(t, []obs.Event{
		{Type: obs.PhaseStart, Phase: "greedy"},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 20},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 10},
		{Type: obs.PhaseEnd, Phase: "greedy", DurNS: 4e6, N: 2, Best: 10},
	})
	b := writeTrace(t, []obs.Event{
		{Type: obs.PhaseStart, Phase: "greedy"},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 12},
		{Type: obs.PhaseEnd, Phase: "greedy", DurNS: 8e6, N: 1, Best: 12},
		{Type: obs.PhaseStart, Phase: "merge"},
		{Type: obs.PhaseEnd, Phase: "merge", DurNS: 1e6, Best: 12},
	})
	out, err := exec.Command(bin, "-diff", a, b).CombinedOutput()
	if err != nil {
		t.Fatalf("-diff failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"greedy", "+100.0%", // phase wall doubled
		"B only", "merge", // phase present only in B
		"final best:   A=10 B=12",
		"verdict: A converged lower",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// Wrong arity is a usage error.
	if _, err := exec.Command(bin, "-diff", a).CombinedOutput(); err == nil {
		t.Error("-diff accepted a single argument")
	}
}

// TestTotalEvalsCountsEveryCandidate pins the evaluation totals of the
// summary and of -diff to the trace's candidate_evaluated events,
// those after the last improvement included: the trace below improves
// at its first and second candidates and evaluates two more.
func TestTotalEvalsCountsEveryCandidate(t *testing.T) {
	bin := buildSitrace(t)
	a := writeTrace(t, []obs.Event{
		{Type: obs.PhaseStart, Phase: "greedy"},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 20},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 10},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 10},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 10},
		{Type: obs.PhaseEnd, Phase: "greedy", DurNS: 4e6, N: 4, Best: 10},
	})
	b := writeTrace(t, []obs.Event{
		{Type: obs.PhaseStart, Phase: "greedy"},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 12},
		{Type: obs.PhaseEnd, Phase: "greedy", DurNS: 8e6, N: 1, Best: 12},
	})
	out, err := exec.Command(bin, a).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "convergence: 2 improvements over 4 evaluations") {
		t.Errorf("summary: %v\n%s", err, out)
	}
	out, err = exec.Command(bin, "-diff", a, b).CombinedOutput()
	if err != nil {
		t.Fatalf("-diff failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"total evals:  A=4 B=1",
		"evals to B's final best: A=2 B=1",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckBalancedTracePasses is the matching positive case.
func TestCheckBalancedTracePasses(t *testing.T) {
	bin := buildSitrace(t)
	trace := writeTrace(t, []obs.Event{
		{Type: obs.PhaseStart, Phase: "greedy"},
		{Type: obs.CandidateEvaluated, Phase: "greedy", Best: 10},
		{Type: obs.PhaseEnd, Phase: "greedy", Best: 10},
	})
	out, err := exec.Command(bin, "-check", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("-check rejected a balanced trace: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "trace OK") {
		t.Fatalf("unexpected output: %s", out)
	}
}

// TestCheckRecording drives sitrace over a flight recording: two
// interleaved jobs' events with elided stretches pass -check and the
// summary, both reporting the elided count; a seq that falls within a
// job fails; the same gaps in a trace without job IDs still fail.
func TestCheckRecording(t *testing.T) {
	bin := buildSitrace(t)
	rec := []obs.Event{
		{Seq: 0, Type: obs.PhaseStart, Phase: "greedy", Job: "a"},
		{Seq: 0, Type: obs.PhaseStart, Phase: "greedy", Job: "b"},
		{Seq: 5, Type: obs.CandidateEvaluated, Phase: "greedy", Best: 10, Job: "a"},
		{Seq: 7, Type: obs.PhaseEnd, Phase: "greedy", Best: 10, Job: "a"},
		{Seq: 3, Type: obs.PhaseEnd, Phase: "greedy", Job: "b"},
	}
	trace := writeRaw(t, rec)
	// Job a keeps 3 of 8 events, job b 2 of 4: 7 elided.
	out, err := exec.Command(bin, "-check", trace).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "trace OK: 5 events, 7 elided") {
		t.Fatalf("-check on a recording: %v\n%s", err, out)
	}
	out, err = exec.Command(bin, trace).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "trace: 5 events, 7 elided") {
		t.Fatalf("summary of a recording: %v\n%s", err, out)
	}

	rec[3].Seq = 5 // job a repeats seq 5
	out, err = exec.Command(bin, "-check", writeRaw(t, rec)).CombinedOutput()
	if err == nil || !strings.Contains(string(out), `job "a" has seq 5 after 5`) {
		t.Fatalf("-check accepted a recording whose seq does not increase:\n%s", out)
	}

	for i := range rec {
		rec[i].Job = ""
	}
	rec[3].Seq = 7
	out, err = exec.Command(bin, "-check", writeRaw(t, rec)).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "has seq") {
		t.Fatalf("-check accepted a seq gap in a trace without job IDs:\n%s", out)
	}
}
