package obs

import (
	"io"
	"sort"
	"sync"
	"time"
)

// Sink receives search-trace events. Emitters hold a Sink and guard
// every emission with a nil check, so a disabled trace costs one
// branch. Implementations: *Tracer (ordered, locked, the collector a
// run hands out) and *Local (unlocked per-worker buffer drained into a
// Tracer in deterministic order).
type Sink interface {
	Emit(Event)
}

// Tracer is the ordered trace collector of one run. It assigns
// contiguous sequence numbers under a mutex; emission is cheap (an
// append) but serialized, which is why concurrent regions emit into
// per-worker Local buffers instead and drain them in a deterministic
// order afterwards.
//
// A tracer built by NewTracer keeps every event. A job tracer may be
// bounded: past its limit it keeps the first limit/2 events, a ring of
// the newest limit-limit/2 events, and every phase_start/phase_end the
// ring pushes out, so phase spans always balance. It still numbers and
// counts every event, so an elided stretch shows as a seq gap and Len
// stays the total.
type Tracer struct {
	mu       sync.Mutex
	job      string
	limit    int  // retained-event bound; 0 keeps every event
	n        int  // events emitted, and the next sequence number
	released bool // Release ran: later emissions are ignored

	// events is the whole trace while it fits the limit. Past it,
	// events holds the head followed by the phase events the ring
	// pushed out, and tail is the ring, oldest slot at next.
	events []Event
	tail   []Event
	next   int
}

// NewTracer returns an empty trace collector that keeps every event.
func NewTracer() *Tracer {
	return &Tracer{}
}

// NewJobTracer returns a trace collector that stamps the given
// job-correlation ID into every event it collects. Emitters stay
// job-agnostic — per-worker Local buffers drained into the tracer pick
// the ID up at collection time, so one engine run recorded for job
// j000042 carries "j000042" on every event of its flight recording.
// A positive limit bounds the retained events as the Tracer comment
// describes; zero or negative keeps every event.
func NewJobTracer(job string, limit int) *Tracer {
	return &Tracer{job: job, limit: max(limit, 0)}
}

// Emit implements Sink: stamps the event with the next sequence number
// (and the collector's job-correlation ID, if any) and records it.
func (t *Tracer) Emit(ev Event) {
	t.mu.Lock()
	if t.released {
		t.mu.Unlock()
		return
	}
	ev.Seq = uint64(t.n)
	t.n++
	if t.job != "" && ev.Job == "" {
		ev.Job = t.job
	}
	if t.limit == 0 || t.n <= t.limit {
		t.events = append(t.events, ev)
		t.mu.Unlock()
		return
	}
	if t.tail == nil {
		// First overflow: the events past the head become the ring.
		head := t.limit / 2
		t.tail = append([]Event(nil), t.events[head:]...)
		t.events = t.events[:head]
	}
	old := &t.tail[t.next]
	if old.Type == PhaseStart || old.Type == PhaseEnd {
		t.events = append(t.events, *old)
	}
	*old = ev
	t.next = (t.next + 1) % len(t.tail)
	t.mu.Unlock()
}

// Len returns the number of emitted events, retained or not.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Events returns a copy of the retained trace.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendSince(nil, 0)
}

// Since returns a copy of the retained events with sequence numbers
// >= n — the incremental read used by followers (e.g. the sitamd SSE
// stream) that poll a live trace without copying the growing prefix on
// every poll. A follower resumes from its last event's Seq+1, not from
// a count, because a bounded tracer's events may skip seqs.
func (t *Tracer) Since(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendSince(nil, uint64(max(n, 0)))
}

// appendSince appends the retained events with sequence numbers >= n
// to dst in sequence order; t.mu must be held.
func (t *Tracer) appendSince(dst []Event, n uint64) []Event {
	for _, seg := range [...][]Event{t.events, t.tail[t.next:], t.tail[:t.next]} {
		i := sort.Search(len(seg), func(i int) bool { return seg[i].Seq >= n })
		dst = append(dst, seg[i:]...)
	}
	return dst
}

// Release ends collection and hands the retained events over in
// sequence order, without a copy when nothing was elided. Afterwards
// the tracer holds no events, ignores emissions and keeps Len at the
// total: a finished job keeps only its count.
func (t *Tracer) Release() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := append(t.events, t.tail[t.next:]...)
	events = append(events, t.tail[:t.next]...)
	t.events, t.tail, t.next, t.released = nil, nil, 0, true
	return events
}

// WriteJSONL serializes the retained trace one JSON object per line.
// An unbounded tracer only appends, so it writes its events in place;
// a bounded one rewrites its buffers past the limit and writes a copy.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	t.mu.Lock()
	events := t.events
	if t.limit > 0 {
		events = t.appendSince(nil, 0)
	}
	t.mu.Unlock()
	return WriteJSONL(w, events)
}

// Local is an unlocked event buffer for one worker (or one ILS
// restart). Workers emit into their own Local without synchronization;
// the coordinator drains the buffers into the shared Tracer in a
// deterministic order once the concurrent region is over.
type Local struct {
	events []Event
}

// NewLocal returns an empty per-worker buffer.
func NewLocal() *Local {
	return &Local{}
}

// Emit implements Sink.
func (l *Local) Emit(ev Event) {
	l.events = append(l.events, ev)
}

// SpanHandle is an open phase span returned by Span.
type SpanHandle struct {
	sink  Sink
	phase string
	start time.Time
}

// Span emits a PhaseStart for phase on sink and returns a handle whose
// End emits the matching PhaseEnd. A nil sink yields an inert handle
// and takes no timestamps, so callers bracket phases unconditionally.
func Span(sink Sink, phase string) SpanHandle {
	if sink == nil {
		return SpanHandle{}
	}
	sink.Emit(Event{Type: PhaseStart, Phase: phase})
	return SpanHandle{sink: sink, phase: phase, start: time.Now()}
}

// End closes the span with the incumbent objective (0 when the phase
// has none) and the phase-specific count n.
func (s SpanHandle) End(best, n int64) {
	if s.sink == nil {
		return
	}
	s.sink.Emit(Event{
		Type: PhaseEnd, Phase: s.phase,
		Best: best, N: n, DurNS: int64(time.Since(s.start)),
	})
}

// Drain replays the buffered events of each Local into dst in argument
// order, then empties the buffers. Sequence numbers are re-assigned by
// dst, so the drained trace is as deterministic as the drain order.
func Drain(dst Sink, locals ...*Local) {
	if dst == nil {
		return
	}
	for _, l := range locals {
		if l == nil {
			continue
		}
		for _, ev := range l.events {
			dst.Emit(ev)
		}
		l.events = nil
	}
}
