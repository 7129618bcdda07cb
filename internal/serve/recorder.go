package serve

import (
	"sync"

	"sitam/internal/obs"
)

// FlightRecorder retains the search traces of finished jobs for
// post-hoc replay through GET /v1/jobs/{id}/trace and for /events
// followers that outlive the job. It keeps at most MaxJobs recordings;
// recording one more evicts the oldest (a ring over completed jobs,
// not over events). The per-recording bound is applied earlier, by the
// job's own tracer while the job runs (obs.NewJobTracer with
// Config.RecorderEvents): past it a recording holds the first half of
// the budget, every phase span event and the newest events, and is
// deterministic for a deterministic trace because the elision is
// positional.
//
// Recordings are immutable once stored, so two replays of the same job
// serve byte-identical JSONL.
type FlightRecorder struct {
	maxJobs int

	mu     sync.Mutex
	order  []string // recording order, oldest first
	traces map[string]*Recording
}

// Recording is one job's retained trace.
type Recording struct {
	// JobID is the job-correlation ID; every retained event carries it
	// in its Job field too.
	JobID string

	// Events is the retained trace in sequence order. Sequence numbers
	// are the original ones, so an elided stretch is visible as a seq
	// gap.
	Events []obs.Event

	// Total is the event count of the full trace; Dropped is how many
	// of them the job's tracer elided (0 when the trace fit).
	Total   int
	Dropped int
}

// Default flight-recorder bounds used when Config leaves them zero.
const (
	DefaultRecorderJobs   = 64
	DefaultRecorderEvents = 8192
)

// NewFlightRecorder builds a recorder keeping at most maxJobs
// recordings; zero or negative takes DefaultRecorderJobs.
func NewFlightRecorder(maxJobs int) *FlightRecorder {
	if maxJobs <= 0 {
		maxJobs = DefaultRecorderJobs
	}
	return &FlightRecorder{maxJobs: maxJobs, traces: map[string]*Recording{}}
}

// Record stores a finished job's retained events as given, with total
// the number of events the job emitted, and evicts the oldest
// recording beyond the job bound. Re-recording an ID replaces the
// previous recording (a finalize is exactly-once, so this only happens
// in tests).
func (fr *FlightRecorder) Record(jobID string, events []obs.Event, total int) {
	if fr == nil {
		return
	}
	rec := &Recording{JobID: jobID, Events: events, Total: total, Dropped: total - len(events)}

	fr.mu.Lock()
	defer fr.mu.Unlock()
	if _, exists := fr.traces[jobID]; !exists {
		fr.order = append(fr.order, jobID)
	}
	fr.traces[jobID] = rec
	for len(fr.order) > fr.maxJobs {
		evict := fr.order[0]
		fr.order = fr.order[1:]
		delete(fr.traces, evict)
	}
}

// Get returns the recording for a job, or nil when it was never
// recorded or has been evicted.
func (fr *FlightRecorder) Get(jobID string) *Recording {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.traces[jobID]
}

// Len returns the number of retained recordings.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.order)
}
