package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans a traced pass records around the benchmark's
// own calls into the program's layers. Spans stay in memory and are
// written out once, when the pass ends. A nil tracer records nothing,
// so the untraced pass runs the same code with tracing off.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

// span is one call into a layer: its name, start and end relative to
// the tracer's origin, the span that caused it, the cell or job it
// worked on, and the counters the call returned.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Unit   string           `json:"unit"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, unit string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit, Start: now})
	return len(t.spans)
}

// end closes span id and attaches the call's counters.
func (t *tracer) end(id int, attrs map[string]int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Attrs = attrs
}

// seconds sums the durations of the spans named name.
func (t *tracer) seconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// attr sums one counter over the spans named name.
func (t *tracer) attr(name, key string) int64 {
	var n int64
	for _, s := range t.spans {
		if s.Name == name {
			n += s.Attrs[key]
		}
	}
	return n
}

// reconcile compares the lanes named lane (the benchmark's own loops:
// one per sweep, pass or client) with the layer spans directly under
// them. It returns the summed lane wall and the part of it the layer
// spans leave uncovered: the caller's own time between layer calls.
func (t *tracer) reconcile(lane string) (wall, self float64) {
	lanes := map[int]bool{}
	var laneNS, coveredNS int64
	for _, s := range t.spans {
		if s.Name == lane {
			lanes[s.ID] = true
			laneNS += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if lanes[s.Parent] {
			coveredNS += s.End - s.Start
		}
	}
	return float64(laneNS) / 1e9, float64(laneNS-coveredNS) / 1e9
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
