// Package obs is the zero-dependency observability layer of the
// optimization stack: a structured search-trace (typed events collected
// by ordered sinks and serialized as JSONL), and a registry of atomic
// counters, gauges and histograms.
//
// The package is a leaf — it imports only the standard library — so
// every implementation package (engine, schedulers, partitioner,
// compaction) can emit into it without import cycles. All hooks are
// nil-safe: a nil sink or nil metric costs one branch on the hot path,
// which is the contract that keeps observability free when disabled.
//
// # Determinism
//
// The trace records the search's decisions: phase spans, scored
// candidates, merges, kicks, the SI schedule and interruptions. The
// per-evaluation counts (cache lookups, recomputed rails and groups)
// live only in the registry. A trace is deterministic for a fixed seed
// and configuration at any worker count, except for the dur_ns field
// of phase-end events, which carries wall-clock time (diff traces with
// it zeroed — see Event.Canonical).
package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Type identifies one kind of search-trace event.
type Type string

// The event vocabulary of the search trace.
const (
	// PhaseStart and PhaseEnd bracket one optimization phase (start
	// solution, the merge loops, reshuffle, ILS, partitioning,
	// compaction, SI scheduling). PhaseEnd carries the wall-clock
	// duration, a phase-specific count N (objective evaluations for
	// engine phases, compacted patterns for compaction) and the
	// incumbent objective.
	PhaseStart Type = "phase_start"
	PhaseEnd   Type = "phase_end"

	// CandidateEvaluated reports one scored candidate of a batch: its
	// index within the batch and its objective. Emitted after the
	// batch completes, in candidate order, so it is identical at any
	// worker count.
	CandidateEvaluated Type = "candidate_evaluated"

	// MergeAccepted and MergeRejected close one improvement batch
	// (a mergeTAMs enumeration or a reshuffle round): accepted batches
	// carry the winning candidate and the new incumbent objective,
	// rejected ones the surviving incumbent.
	MergeAccepted Type = "merge_accepted"
	MergeRejected Type = "merge_rejected"

	// ILSKick reports one iterated-local-search perturbation round:
	// the kick number, the walk's objective after local search, and
	// the best objective seen so far.
	ILSKick Type = "ils_kick"

	// SIGroupScheduled reports one SI test group placed by Algorithm 1
	// on the final architecture: begin/end times, the involved rail
	// count, the bottleneck rail and the pattern count.
	SIGroupScheduled Type = "si_group_scheduled"

	// DeadlineHit reports an anytime interruption: the phase that was
	// cut short and the cause ("deadline", "interrupted" or "budget").
	DeadlineHit Type = "deadline_hit"
)

// knownTypes is the closed set of event types a valid trace may use.
var knownTypes = map[Type]bool{
	PhaseStart: true, PhaseEnd: true,
	CandidateEvaluated: true,
	MergeAccepted:      true, MergeRejected: true,
	ILSKick:          true,
	SIGroupScheduled: true,
	DeadlineHit:      true,
}

// Event is one search-trace record. The struct is flat — every event
// type uses a documented subset of the fields and leaves the rest at
// their zero value, which the JSONL encoding omits.
type Event struct {
	// Seq is the event's position in the trace, assigned by the
	// collecting Tracer: contiguous from 0. A bounded job tracer's
	// retained events skip the seqs it elided.
	Seq uint64 `json:"seq"`

	// Type is the event kind; one of the Type constants.
	Type Type `json:"type"`

	// Phase names the optimization phase the event belongs to.
	Phase string `json:"phase,omitempty"`

	// Cand is the candidate index within its batch (CandidateEvaluated)
	// or the winning candidate index (MergeAccepted).
	Cand int `json:"cand,omitempty"`

	// Obj is the objective value attached to the event: the scored
	// candidate's objective, or the incumbent after a batch closes.
	Obj int64 `json:"obj,omitempty"`

	// Best is the best (incumbent) objective of the enclosing search
	// at emission time. The convergence curve of a run is the running
	// minimum of Best over the trace; it ends at the run's final
	// objective.
	Best int64 `json:"best,omitempty"`

	// N is a per-type count: batch size on MergeAccepted/Rejected,
	// objective evaluations on engine PhaseEnd, compacted patterns on
	// compaction PhaseEnd, branch-and-bound nodes on the exact
	// scheduler's PhaseEnd, pattern count on SIGroupScheduled.
	N int64 `json:"n,omitempty"`

	// Kick is the 1-based ILS perturbation round.
	Kick int `json:"kick,omitempty"`

	// Seed is the random seed of the emitting search (ILS walks).
	Seed int64 `json:"seed,omitempty"`

	// Group names an SI test group (SIGroupScheduled, compaction).
	Group string `json:"group,omitempty"`

	// Rails is the number of involved rails (SIGroupScheduled) or the
	// rail count of the accepted architecture (MergeAccepted).
	Rails int `json:"rails,omitempty"`

	// Rail is the bottleneck rail index of a scheduled group.
	Rail int `json:"rail,omitempty"`

	// Begin and End are schedule times in cycles (SIGroupScheduled).
	Begin int64 `json:"begin,omitempty"`
	End   int64 `json:"end,omitempty"`

	// Power is the scheduled group's test power and Budget the power
	// ceiling it was scheduled under (SIGroupScheduled; both 0 on
	// unconstrained runs). Carried on every event rather than once per
	// trace so power validation survives truncated traces.
	Power  int64 `json:"power,omitempty"`
	Budget int64 `json:"budget,omitempty"`

	// Cause is the interruption cause of a DeadlineHit: "deadline",
	// "interrupted" or "budget".
	Cause string `json:"cause,omitempty"`

	// DurNS is the phase wall-clock duration in nanoseconds (PhaseEnd).
	// It is the one nondeterministic field of a trace.
	DurNS int64 `json:"dur_ns,omitempty"`

	// Job is the job-correlation ID stamped by a NewJobTracer collector
	// (the sitamd flight recorder). Empty on CLI traces. A trace may
	// interleave events of several jobs (e.g. concatenated flight
	// recordings); ValidateJobSpans checks span balance per job.
	Job string `json:"job,omitempty"`
}

// Canonical returns the event with its nondeterministic wall-clock
// field zeroed, so two traces of the same run can be compared.
func (e Event) Canonical() Event {
	e.DurNS = 0
	return e
}

// Validate checks the event against the schema: a known type and the
// per-type required fields.
func (e *Event) Validate() error {
	if !knownTypes[e.Type] {
		return fmt.Errorf("obs: unknown event type %q", e.Type)
	}
	switch e.Type {
	case PhaseStart, PhaseEnd, CandidateEvaluated, MergeAccepted, MergeRejected:
		if e.Phase == "" {
			return fmt.Errorf("obs: %s event without phase", e.Type)
		}
	case ILSKick:
		if e.Kick < 1 {
			return fmt.Errorf("obs: ils_kick event with kick %d", e.Kick)
		}
	case SIGroupScheduled:
		if e.Group == "" {
			return errors.New("obs: si_group_scheduled event without group")
		}
		if e.End < e.Begin {
			return fmt.Errorf("obs: si_group_scheduled %q ends at %d before it begins at %d", e.Group, e.End, e.Begin)
		}
		if e.Rails < 1 {
			return fmt.Errorf("obs: si_group_scheduled %q involves %d rails", e.Group, e.Rails)
		}
		if e.Power < 0 || e.Budget < 0 {
			return fmt.Errorf("obs: si_group_scheduled %q with negative power %d or budget %d", e.Group, e.Power, e.Budget)
		}
		if e.Budget > 0 && e.Power > e.Budget {
			return fmt.Errorf("obs: si_group_scheduled %q power %d exceeds its own budget %d", e.Group, e.Power, e.Budget)
		}
	case DeadlineHit:
		switch e.Cause {
		case "deadline", "interrupted", "budget":
		default:
			return fmt.Errorf("obs: deadline_hit event with cause %q", e.Cause)
		}
	}
	if e.DurNS < 0 {
		return fmt.Errorf("obs: negative duration %d", e.DurNS)
	}
	return nil
}

// ValidateTrace checks a whole trace: every event validates and the
// sequence numbers are contiguous from 0 (the collector's invariant).
func ValidateTrace(events []Event) error {
	for i := range events {
		if events[i].Seq != uint64(i) {
			return fmt.Errorf("obs: event %d has seq %d", i, events[i].Seq)
		}
		if err := events[i].Validate(); err != nil {
			return fmt.Errorf("obs: event %d: %w", i, err)
		}
	}
	return nil
}

// ValidateRecording checks a flight recording: the events a bounded
// job tracer retained, each carrying its job ID, with several jobs'
// recordings possibly concatenated or interleaved. Every event
// validates and sequence numbers strictly increase within each job;
// a gap is an elision, not an error. It returns how many events the
// recording elided: per job, the seqs up to its last one that it does
// not carry.
func ValidateRecording(events []Event) (elided int, err error) {
	type seen struct {
		kept int
		last uint64
	}
	jobs := map[string]seen{}
	for i := range events {
		ev := &events[i]
		if ev.Job == "" {
			return 0, fmt.Errorf("obs: event %d carries no job ID", i)
		}
		if err := ev.Validate(); err != nil {
			return 0, fmt.Errorf("obs: event %d: %w", i, err)
		}
		s, ok := jobs[ev.Job]
		if ok && ev.Seq <= s.last {
			return 0, fmt.Errorf("obs: event %d of job %q has seq %d after %d", i, ev.Job, ev.Seq, s.last)
		}
		jobs[ev.Job] = seen{kept: s.kept + 1, last: ev.Seq}
	}
	for _, s := range jobs {
		elided += int(s.last) + 1 - s.kept
	}
	return elided, nil
}

// ValidateSpans checks that phase spans balance: every PhaseStart has
// a matching PhaseEnd for the same phase, and no PhaseEnd arrives for
// a phase with no span open. Balance is counted per phase name rather
// than strictly nested, because Drain replays per-worker buffers
// sequentially and same-name spans from sibling workers may
// interleave. A trace that fails this check was truncated (the process
// died mid-phase) or comes from an emitter with a missing End.
func ValidateSpans(events []Event) error {
	open := map[string]int{}
	for i := range events {
		switch events[i].Type {
		case PhaseStart:
			open[events[i].Phase]++
		case PhaseEnd:
			open[events[i].Phase]--
			if open[events[i].Phase] < 0 {
				return fmt.Errorf("obs: event %d: phase_end %q with no open span", i, events[i].Phase)
			}
		}
	}
	var bad []string
	for phase, n := range open {
		if n != 0 {
			bad = append(bad, fmt.Sprintf("%q (%d unclosed)", phase, n))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("obs: unbalanced phase spans: %s", bad)
	}
	return nil
}

// ValidateJobSpans checks job-correlation balance: phase spans must
// balance within each job-correlation ID separately (the empty ID — CLI
// traces — is a job of its own). A global ValidateSpans pass can be
// fooled by two interleaved jobs whose mismatched spans happen to sum
// to balance; grouping by ID first closes that hole, and it is what
// sitrace -check runs against flight-recorder output.
func ValidateJobSpans(events []Event) error {
	byJob := map[string][]Event{}
	var order []string
	for i := range events {
		id := events[i].Job
		if _, ok := byJob[id]; !ok {
			order = append(order, id)
		}
		byJob[id] = append(byJob[id], events[i])
	}
	for _, id := range order {
		if err := ValidateSpans(byJob[id]); err != nil {
			if id == "" {
				return err
			}
			return fmt.Errorf("job %q: %w", id, err)
		}
	}
	return nil
}

// ValidateSchedulePower sweeps the si_group_scheduled events of a
// trace and checks that at no instant the summed power of overlapping
// groups exceeds their declared budget. Events with budget 0
// (unconstrained runs) are skipped; budgets are carried per event, so
// the check is meaningful even on truncated traces. This is the trace
// half of the ValidatePower invariant — sitrace -check runs it against
// every trace, independent of the scheduler that produced it.
func ValidateSchedulePower(events []Event) error {
	var slots []Event
	for i := range events {
		e := &events[i]
		if e.Type == SIGroupScheduled && e.Budget > 0 && e.End > e.Begin {
			slots = append(slots, *e)
		}
	}
	// Sweep the start boundaries (peaks only form at starts).
	for _, probe := range slots {
		var inUse int64
		for _, s := range slots {
			if s.Begin <= probe.Begin && probe.Begin < s.End {
				inUse += s.Power
			}
		}
		if inUse > probe.Budget {
			return fmt.Errorf("obs: power %d in use at t=%d exceeds budget %d (group %q)",
				inUse, probe.Begin, probe.Budget, probe.Group)
		}
	}
	return nil
}

// WriteJSONL serializes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace strictly: unknown fields and unknown
// event types are errors, blank lines are skipped.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		if !knownTypes[ev.Type] {
			return nil, fmt.Errorf("obs: line %d: unknown event type %q", line, ev.Type)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return out, nil
}

// CtxCause names a context error for the Cause field of a DeadlineHit
// event: "deadline" for expiry, "interrupted" for cancellation, ""
// otherwise. The engine's richer StopCause (which adds the evaluation
// budget) lives in package core; layers below it only ever stop on
// context errors.
func CtxCause(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "interrupted"
	}
	return ""
}
